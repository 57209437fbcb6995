#include "coin/coin.h"

#include "util/assert.h"

namespace hyco {

BiasedCommonCoin::BiasedCommonCoin(std::uint64_t seed, double epsilon,
                                   std::function<int(Round)> adversary_bit)
    : seed_(seed), epsilon_(epsilon), adversary_bit_(std::move(adversary_bit)) {
  HYCO_CHECK_MSG(epsilon >= 0.0 && epsilon <= 1.0,
                 "epsilon " << epsilon << " out of [0,1]");
  HYCO_CHECK_MSG(static_cast<bool>(adversary_bit_),
                 "biased coin needs an adversary strategy");
}

int BiasedCommonCoin::bit(Round r) {
  // Two independent derivations from (seed, r): one for the fair bit, one
  // for the "is this round corrupted" trial. Both are pure functions of
  // (seed, r), so every process computes the same outcome.
  const std::uint64_t h1 = mix64(seed_, static_cast<std::uint64_t>(r));
  const std::uint64_t h2 = mix64(h1, 0xAD7E);
  const double u =
      static_cast<double>(h2 >> 11) * 0x1.0p-53;  // uniform in [0,1)
  if (u < epsilon_) {
    const int b = adversary_bit_(r);
    HYCO_CHECK_MSG(b == 0 || b == 1, "adversary bit must be 0/1");
    return b;
  }
  return static_cast<int>(h1 & 1U);
}

std::unique_ptr<ICommonCoin> make_common_coin(std::uint64_t seed,
                                              std::uint64_t salt,
                                              double epsilon,
                                              int adversary_bit) {
  const std::uint64_t coin_seed = mix64(seed, salt);
  if (epsilon > 0.0) {
    return std::make_unique<BiasedCommonCoin>(
        coin_seed, epsilon, [adversary_bit](Round) { return adversary_bit; });
  }
  return std::make_unique<CommonCoin>(coin_seed);
}

}  // namespace hyco
