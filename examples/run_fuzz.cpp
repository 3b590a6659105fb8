/**
 * @file
 * Differential fuzz driver for generated kernels.
 *
 * Usage:
 *   run_fuzz [--scenarios=N] [--seed=S] [--jobs=N] [--cache-dir=DIR]
 *            [--no-cache] [--mutate-every=N] [--no-minimize]
 *            [--minimize-budget=N] [--save=FILE] [--quiet]
 *   run_fuzz --corpus=FILE [--cache-dir=DIR] [--no-cache] [--quiet]
 *
 * Fuzz mode derives N (spec, config) scenarios from the root seed and
 * runs each under the four oracles (self-check, release-flag
 * soundness, event-vs-naive cycle loop, sequential-vs-parallel
 * multi-SM loop); every --mutate-every'th scenario additionally
 * injects a single-bit release-flag fault into the compiled program
 * and asserts the static verifier catches it.  Failures are shrunk by
 * the delta-debugging minimizer and printed as regression-corpus
 * lines (appended to --save when given).  Exit 1 on any failure.
 *
 * --jobs is at most 256; a numeric flag that is not a canonical decimal
 * in range prints `unparsable value in <flag>` and exits 2.
 *
 * Corpus mode replays a committed corpus file: `pass` entries must
 * pass every oracle, `caught` entries' injected faults must still be
 * detected.  Exit 1 on any regression.
 *
 * Examples:
 *   run_fuzz --scenarios=10000 --jobs=8 --mutate-every=7
 *   run_fuzz --corpus=tests/corpus/fuzz/regressions.txt
 */
#include <fstream>
#include <iostream>
#include <string>

#include "cli.h"
#include "gen/fuzz.h"

using namespace rfv;

namespace {

int
replayCorpus(const std::string &path, const SweepOptions &sweepOpts,
             bool quiet)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open corpus " << path << "\n";
        return 2;
    }
    SweepEngine engine(sweepOpts);
    u32 entries = 0, regressions = 0, lineNo = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lineNo;
        CorpusEntry entry;
        std::string error;
        if (!parseCorpusLine(line, entry, error)) {
            if (error.empty())
                continue; // blank / comment
            std::cerr << path << ":" << lineNo << ": " << error
                      << "\n";
            return 2;
        }
        ++entries;
        const auto detail = replayCorpusEntry(engine, entry);
        if (detail) {
            ++regressions;
            std::cerr << "REGRESSION " << path << ":" << lineNo << " "
                      << entry.spec.name() << " ["
                      << fuzzOracleName(entry.oracle)
                      << "]: " << *detail << "\n";
        } else if (!quiet) {
            std::cout << "ok " << entry.spec.name() << " ["
                      << fuzzOracleName(entry.oracle) << "]\n";
        }
    }
    if (!quiet)
        std::cout << "corpus: " << entries << " entries, "
                  << regressions << " regression(s)\n";
    return regressions ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts;
    opts.scenarios = 200;
    std::string corpusPath, savePath;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        bool ok = true;
        if (arg.rfind("--scenarios=", 0) == 0)
            ok = parseCanonical(arg.substr(12), opts.scenarios);
        else if (arg.rfind("--seed=", 0) == 0)
            ok = parseCanonical(arg.substr(7), opts.seed);
        else if (arg.rfind("--jobs=", 0) == 0)
            ok = parseCanonical(arg.substr(7), opts.jobs, kMaxWorkers);
        else if (arg.rfind("--cache-dir=", 0) == 0)
            opts.cacheDir = arg.substr(12);
        else if (arg == "--no-cache")
            opts.useCache = false;
        else if (arg.rfind("--mutate-every=", 0) == 0)
            ok = parseCanonical(arg.substr(15), opts.mutateEvery);
        else if (arg == "--no-minimize")
            opts.minimize = false;
        else if (arg.rfind("--minimize-budget=", 0) == 0)
            ok = parseCanonical(arg.substr(18), opts.minimizeBudget);
        else if (arg.rfind("--corpus=", 0) == 0)
            corpusPath = arg.substr(9);
        else if (arg.rfind("--save=", 0) == 0)
            savePath = arg.substr(7);
        else if (arg == "--quiet")
            quiet = true;
        else {
            std::cerr << "unknown option " << arg << "\n";
            return 2;
        }
        if (!ok) {
            std::cerr << "unparsable value in " << arg << "\n";
            return 2;
        }
    }

    try {
        if (!corpusPath.empty()) {
            SweepOptions sweepOpts;
            sweepOpts.cacheDir = opts.cacheDir;
            sweepOpts.useCache = opts.useCache;
            return replayCorpus(corpusPath, sweepOpts, quiet);
        }

        const FuzzReport report = runFuzz(opts);
        if (!quiet) {
            std::cout << "fuzz: " << report.scenarios
                      << " scenarios, " << report.oracleChecks
                      << " oracle checks, " << report.mutationsCaught
                      << " injected fault(s) caught ("
                      << report.mutationsBenign << " benign), "
                      << report.failures.size() << " failure(s) in "
                      << report.wallSeconds << "s\n";
        }
        if (report.failures.empty())
            return 0;

        std::ofstream save;
        if (!savePath.empty()) {
            save.open(savePath, std::ios::app);
            if (!save) {
                std::cerr << "cannot write " << savePath << "\n";
                return 2;
            }
        }
        for (const FuzzFailure &f : report.failures) {
            std::cerr << "FAILURE scenario " << f.scenario.index
                      << " [" << fuzzOracleName(f.oracle)
                      << "]: " << f.detail << "\n";
            std::cerr << "  original:  " << f.scenario.spec.name()
                      << " @ " << f.scenario.config.label << "\n";
            const std::string line = corpusLine(f);
            std::cerr << "  minimized (" << f.shrinkTests
                      << " shrink tests): " << line << "\n";
            if (save.is_open())
                save << line << "\n";
        }
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "run_fuzz: " << e.what() << "\n";
        return 2;
    }
}
