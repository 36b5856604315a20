#include "horus/util/bitfield.hpp"

#include <stdexcept>

namespace horus {

std::size_t BitLayout::add_group(const std::vector<FieldSpec>& fields) {
  std::vector<Slot> slots;
  slots.reserve(fields.size());
  for (const auto& f : fields) {
    if (f.bits < 1 || f.bits > 64) throw std::invalid_argument("field width");
    slots.push_back({total_bits_, f.bits});
    total_bits_ += static_cast<std::size_t>(f.bits);
  }
  groups_.push_back(std::move(slots));
  return groups_.size() - 1;
}

}  // namespace horus
