// IPv4 addresses.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace asp::net {

/// Netmask of a prefix length: 0 (or less) gives 0, 32 (or more) all ones.
constexpr std::uint32_t netmask(int prefix_len) {
  return prefix_len <= 0    ? 0u
         : prefix_len >= 32 ? 0xFFFFFFFFu
                            : ~(0xFFFFFFFFu >> prefix_len);
}

/// An IPv4 address (host byte order). Value type, totally ordered, hashable.
class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t bits) : bits_(bits) {}
  constexpr Ipv4Addr(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : bits_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | d) {}

  /// Parses dotted-quad notation ("131.254.60.81"). Returns nullopt on error.
  static std::optional<Ipv4Addr> parse(const std::string& s);

  constexpr std::uint32_t bits() const { return bits_; }
  std::string str() const;

  /// 224.0.0.0/4.
  constexpr bool is_multicast() const { return (bits_ >> 28) == 0xE; }
  constexpr bool is_unspecified() const { return bits_ == 0; }

  /// True if this address falls in `prefix`/`prefix_len`.
  constexpr bool in_prefix(Ipv4Addr prefix, int prefix_len) const {
    return ((bits_ ^ prefix.bits_) & netmask(prefix_len)) == 0;
  }

  friend constexpr bool operator==(Ipv4Addr a, Ipv4Addr b) { return a.bits_ == b.bits_; }
  friend constexpr bool operator!=(Ipv4Addr a, Ipv4Addr b) { return a.bits_ != b.bits_; }
  friend constexpr bool operator<(Ipv4Addr a, Ipv4Addr b) { return a.bits_ < b.bits_; }

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace asp::net

template <>
struct std::hash<asp::net::Ipv4Addr> {
  std::size_t operator()(asp::net::Ipv4Addr a) const noexcept {
    return std::hash<std::uint32_t>{}(a.bits());
  }
};
