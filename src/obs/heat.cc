#include "src/obs/heat.h"

#include <algorithm>

namespace ace {

std::vector<LogicalPage> HeatProfile::TopPages(std::size_t n) const {
  std::vector<LogicalPage> referenced;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    if (pages_[lp].Total() > 0) {
      referenced.push_back(lp);
    }
  }
  auto hotter = [&](LogicalPage a, LogicalPage b) {
    const PageHeat& ha = pages_[a];
    const PageHeat& hb = pages_[b];
    if (ha.OffNodeTotal() != hb.OffNodeTotal()) {
      return ha.OffNodeTotal() > hb.OffNodeTotal();
    }
    if (ha.Total() != hb.Total()) {
      return ha.Total() > hb.Total();
    }
    return a < b;
  };
  if (referenced.size() > n) {
    std::partial_sort(referenced.begin(), referenced.begin() + static_cast<std::ptrdiff_t>(n),
                      referenced.end(), hotter);
    referenced.resize(n);
  } else {
    std::sort(referenced.begin(), referenced.end(), hotter);
  }
  return referenced;
}

}  // namespace ace
