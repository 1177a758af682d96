// Lower-case hex of a byte string, for tests that pin binary formats byte
// for byte.

#ifndef CASCN_TESTS_TESTING_HEX_H_
#define CASCN_TESTS_TESTING_HEX_H_

#include <string>
#include <string_view>

namespace cascn::testing {

inline std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const unsigned char b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

}  // namespace cascn::testing

#endif  // CASCN_TESTS_TESTING_HEX_H_
