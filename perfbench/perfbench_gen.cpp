/// \file perfbench_gen.cpp
/// \brief Seeded input generator for the end-to-end CP-ALS benchmark.
///
///   perfbench_gen --out <path.bin|path.tns> --seed <n>
///                 (--preset <name> --scale <s> | --dims I,J,K --nnz <n>
///                  --zipf <z>)
///
/// Either scales a Table I preset or builds a SyntheticConfig directly, and
/// writes the tensor in the format the output extension names. Runs as its
/// own process so the measured program only ever loads finished files.

#include <cstdio>
#include <string>

#include "sptd.hpp"

namespace {

using namespace sptd;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options cli("perfbench_gen", "write one seeded benchmark input tensor");
  cli.add("out", "", "output path (.bin or .tns)");
  cli.add("seed", "1", "generator seed");
  cli.add("preset", "", "Table I preset to scale (or use --dims/--nnz)");
  cli.add("scale", "1", "preset scale");
  cli.add("dims", "", "explicit mode lengths, e.g. 12300,3300,22500");
  cli.add("nnz", "0", "explicit nonzero count");
  cli.add("zipf", "0", "explicit slice-popularity skew");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string out = cli.get_string("out");
    SPTD_CHECK(ends_with(out, ".bin") || ends_with(out, ".tns"),
               "perfbench_gen: --out must end in .bin or .tns");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    SyntheticConfig cfg;
    if (!cli.get_string("preset").empty()) {
      cfg = find_preset(cli.get_string("preset"))
                .scaled(cli.get_double("scale"), seed);
    } else {
      for (const int d : cli.get_int_list("dims")) {
        SPTD_CHECK(d >= 1, "perfbench_gen: --dims entries must be >= 1");
        cfg.dims.push_back(static_cast<idx_t>(d));
      }
      SPTD_CHECK(!cfg.dims.empty() && cli.get_int("nnz") > 0,
                 "perfbench_gen: need --preset or --dims and --nnz");
      cfg.nnz = static_cast<nnz_t>(cli.get_int("nnz"));
      cfg.zipf_exponent = cli.get_double("zipf");
      cfg.seed = seed;
    }

    const SparseTensor t = generate_synthetic(cfg);
    if (ends_with(out, ".bin")) {
      write_bin_file(t, out);
    } else {
      write_tns_file(t, out);
    }
    std::printf("{\"nnz\": %llu}\n", static_cast<unsigned long long>(t.nnz()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
}
