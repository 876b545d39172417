/**
 * @file
 * Figure 6: energy-delay frontiers for each supply voltage across the
 * full >4,000-point design space (the overall span is 71x in energy —
 * 0.67 to 47.59 pJ/instruction — and 225x in delay — 1.37 to
 * 309.03 ns/instruction in the paper).
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "vlsi/dse.hh"
#include "workloads/cpi.hh"

int
main()
{
    using namespace tia;
    bench::banner("Figure 6 — per-supply-voltage energy-delay "
                  "frontiers",
                  "71x energy span (0.67-47.59 pJ/ins), 225x delay "
                  "span (1.37-309.03 ns/ins)");

    const WorkloadSizes sizes = bench::benchSizes();
    std::printf("Measuring suite-average CPI on all 32 "
                "microarchitectures...\n");
    const unsigned jobs = bench::benchJobs();
    bench::BenchCache cache;
    const DesignSpace dse(
        suiteAverageCpiTable(sizes, allConfigs(), jobs,
                             cache.options()));
    // Streamed enumeration (exec/pipeline.hh); identical point order
    // and values to the serial enumerate().
    const DseStreamResult stream = dse.enumerateStreamed(jobs);

    double min_e = 1e30, max_e = 0.0, min_d = 1e30, max_d = 0.0;
    std::map<double, std::vector<DesignPoint>> by_vdd;
    for (const DesignPoint &p : stream.points) {
        by_vdd[p.vdd].push_back(p);
        min_e = std::min(min_e, p.pjPerInstruction);
        max_e = std::max(max_e, p.pjPerInstruction);
        min_d = std::min(min_d, p.nsPerInstruction);
        max_d = std::max(max_d, p.nsPerInstruction);
    }
    const std::size_t evaluated = stream.points.size();

    std::printf("\nGrid points attempted: %zu; timing-closed design "
                "points evaluated: %zu (paper: \"over 4,000\")\n",
                dse.gridSize(), evaluated);
    std::printf("Energy span: %.2f - %.2f pJ/ins (%.0fx; paper 71x)\n",
                min_e, max_e, max_e / min_e);
    std::printf("Delay span:  %.2f - %.2f ns/ins (%.0fx; paper 225x)\n\n",
                min_d, max_d, max_d / min_d);

    for (auto &[vdd, vec] : by_vdd) {
        const auto frontier = DesignSpace::paretoFrontier(vec);
        std::printf("VDD = %.1f V frontier (%zu points):\n", vdd,
                    frontier.size());
        std::printf("  %-18s %-8s %-9s %12s %13s\n", "design", "VT",
                    "f (MHz)", "ns/ins", "pJ/ins");
        for (const DesignPoint &p : frontier) {
            std::printf("  %-18s %-8s %-9.0f %12.3f %13.3f\n",
                        p.config.name().c_str(), vtName(p.vt), p.freqMhz,
                        p.nsPerInstruction, p.pjPerInstruction);
        }
        std::printf("\n");
    }
    return 0;
}
