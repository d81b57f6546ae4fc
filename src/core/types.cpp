#include "core/types.hpp"

#include <sstream>

namespace hgc {

std::string to_string(const Assignment& assignment) {
  std::ostringstream os;
  for (std::size_t w = 0; w < assignment.size(); ++w) {
    if (w) os << ' ';
    os << 'W' << w << ":{";
    for (std::size_t i = 0; i < assignment[w].size(); ++i) {
      if (i) os << ',';
      os << assignment[w][i];
    }
    os << '}';
  }
  return os.str();
}

std::size_t count_received(const std::vector<bool>& received) {
  std::size_t n = 0;
  for (bool r : received) n += r ? 1 : 0;
  return n;
}

}  // namespace hgc
