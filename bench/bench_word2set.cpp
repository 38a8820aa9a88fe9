// E4 — footnote 2: "when using BDDs, the translation word2set() does not
// create an exponential blow-up."
//
// We insert robust words with a growing number of don't-care bits into an
// on-off monitor's BDD and report node counts and insertion time, against
// the count of concrete words represented (which *is* exponential). Each
// row's time is the median of 5 inserts into fresh monitors, after one
// untimed insert. The expected shape: represented words grow as 2^dc
// while nodes and time stay linear in the number of constrained bits.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/interval_monitor.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace ranm;

int main() {
  const std::size_t dim = 256;
  Rng rng(4);

  TextTable table(
      "E4: word2set with d don't-cares (monitor over 256 neurons)");
  table.set_header({"don't-care bits", "constrained bits", "words stored",
                    "bdd nodes", "insert us (median of 5)"});

  const ThresholdSpec spec =
      ThresholdSpec::onoff(std::vector<float>(dim, 0.0F));
  {
    // One untimed insert first, so that no row pays the process's
    // first-call costs.
    IntervalMonitor warm(spec);
    warm.observe_bounds(std::vector<float>(dim, 0.5F),
                        std::vector<float>(dim, 1.5F));
  }
  constexpr std::size_t kInserts = 5;
  for (std::size_t dc : {0UL, 8UL, 32UL, 64UL, 128UL, 192UL, 240UL, 256UL}) {
    // Build bounds: `dc` randomly chosen neurons straddle the threshold
    // (don't-care), the rest are pinned to 1 or 0.
    std::vector<float> lo(dim), hi(dim);
    const auto perm = rng.permutation(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      const std::size_t j = perm[i];
      if (i < dc) {
        lo[j] = -1.0F;
        hi[j] = 1.0F;  // straddles c = 0 -> don't-care
      } else if (rng.chance(0.5)) {
        lo[j] = 0.5F;
        hi[j] = 1.5F;  // certainly on
      } else {
        lo[j] = -1.5F;
        hi[j] = -0.5F;  // certainly off
      }
    }
    // Each insert into a fresh monitor; every one builds the same set.
    std::vector<double> us;
    std::optional<IntervalMonitor> m;
    for (std::size_t r = 0; r < kInserts; ++r) {
      m.emplace(spec);
      Timer t;
      m->observe_bounds(lo, hi);
      us.push_back(t.millis() * 1000.0);
    }
    std::sort(us.begin(), us.end());
    table.add_row({std::to_string(dc), std::to_string(dim - dc),
                   TextTable::num(m->pattern_count(), 0),
                   std::to_string(m->bdd_node_count()),
                   TextTable::num(us[kInserts / 2], 1)});
  }
  table.print();

  // Second series: many robust insertions accumulate without blow-up.
  TextTable table2("E4b: accumulated robust insertions (64 neurons, "
                   "~25% don't-cares each)");
  table2.set_header({"insertions", "words stored", "bdd nodes"});
  const std::size_t dim2 = 64;
  IntervalMonitor acc(ThresholdSpec::onoff(std::vector<float>(dim2, 0.0F)));
  std::size_t next_report = 1;
  for (std::size_t n = 1; n <= 1024; ++n) {
    std::vector<float> lo(dim2), hi(dim2);
    for (std::size_t j = 0; j < dim2; ++j) {
      if (rng.chance(0.25)) {
        lo[j] = -1.0F;
        hi[j] = 1.0F;
      } else if (rng.chance(0.5)) {
        lo[j] = 0.5F;
        hi[j] = 1.0F;
      } else {
        lo[j] = -1.0F;
        hi[j] = -0.5F;
      }
    }
    acc.observe_bounds(lo, hi);
    if (n == next_report) {
      table2.add_row({std::to_string(n), TextTable::num(acc.pattern_count(), 0),
                      std::to_string(acc.bdd_node_count())});
      next_report *= 4;
    }
  }
  table2.print();
  std::printf("\n[E4] expected shape: words grow ~2^dc, nodes stay "
              "O(constrained bits); accumulated sets grow sub-linearly in "
              "stored words.\n");
  return 0;
}
