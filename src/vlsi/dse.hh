/**
 * @file
 * Design-space exploration over microarchitecture x VT library x
 * supply voltage x target frequency (paper Section 3 methodology,
 * Figures 6-8).
 *
 * The paper's grids: standard-VT cells characterized at 0.6-1.0 V in
 * 0.1 V steps with target frequencies 100 MHz-1.5 GHz at 100 MHz
 * granularity, refined to 50 MHz up through 500 MHz near threshold;
 * low-/high-VT cells at 0.4/0.6/0.8/1.0 V, with the subthreshold
 * high-VT sweeps additionally refined in 10 MHz increments through
 * 100 MHz. Eight pipelines x four optimization settings = 32
 * microarchitectures; the resulting space exceeds 4,000 design points.
 */

#ifndef TIA_VLSI_DSE_HH
#define TIA_VLSI_DSE_HH

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "uarch/config.hh"
#include "vlsi/area_power.hh"
#include "vlsi/tech.hh"

namespace tia {

/** CPI per microarchitecture (keyed by PeConfig::name()). */
using CpiTable = std::map<std::string, double>;

/** One evaluated design point. */
struct DesignPoint
{
    PeConfig config;
    VtClass vt = VtClass::Standard;
    double vdd = 1.0;
    double freqMhz = 0.0;
    double maxFreqMhz = 0.0;

    double cpi = 0.0;
    double nsPerInstruction = 0.0;
    double pjPerInstruction = 0.0;
    double areaUm2 = 0.0;
    double powerMw = 0.0;

    /** Power density in mW/mm^2 (paper Section 5.4, Power Density). */
    double
    powerDensity() const
    {
        return powerMw / (areaUm2 * 1.0e-6);
    }

    /** Energy-delay product (pJ x ns). */
    double edp() const { return nsPerInstruction * pjPerInstruction; }
};

/** Options for DesignSpace::enumerateStreamed. */
struct DseStreamOptions
{
    /**
     * Early exit: stop generating new shards once this many
     * consecutive design points have been sunk without changing the
     * Pareto frontier. 0 disables early exit (the full grid runs).
     */
    std::size_t stableWindow = 0;
    /**
     * Streaming frontier observer, called on the enumerating thread
     * at most once per completed shard whose points changed the
     * frontier: (points seen so far, current frontier).
     */
    std::function<void(std::size_t pointsSeen,
                       const std::vector<DesignPoint> &frontier)>
        onFrontierUpdate;
};

/** Result of DesignSpace::enumerateStreamed. */
struct DseStreamResult
{
    /** Every evaluated point, in the serial enumerate() order. */
    std::vector<DesignPoint> points;
    /** Energy-delay Pareto frontier of @ref points, by ascending ns. */
    std::vector<DesignPoint> frontier;
    std::size_t frontierUpdates = 0; ///< Points that changed the frontier.
    std::size_t shardsTotal = 0;     ///< (config, vt, vdd) shards in grid.
    std::size_t shardsCompleted = 0; ///< Shards evaluated (== total unless
                                     ///< earlyExit).
    bool earlyExit = false; ///< Stopped via stableWindow before the end.
    unsigned jobs = 1;      ///< Worker threads used.
    double wallMs = 0.0;    ///< Wall-clock time of the enumeration.
};

class DesignSpace
{
  public:
    /**
     * @param cpi  per-microarchitecture CPI measurements.
     * @param tech technology corner used for timing closure *and* for
     *             placing the near/sub-threshold grid refinements.
     */
    explicit DesignSpace(CpiTable cpi, TechModel tech = TechModel{})
        : cpi_(std::move(cpi)), tech_(tech)
    {
    }

    /** Evaluate one operating point (frequency must be <= max). */
    DesignPoint evaluate(const PeConfig &config, VtClass vt, double vdd,
                         double freq_mhz) const;

    /**
     * Enumerate the full methodology grid over @p configs (all 32 by
     * default), skipping points above timing closure: the serial
     * reference loop nest (config, vt, vdd, frequency).
     */
    std::vector<DesignPoint>
    enumerate(const std::vector<PeConfig> &configs = allConfigs()) const;

    /**
     * enumerate() sharded by (config, vt, vdd) on the streaming
     * SweepPipeline (exec/pipeline.hh), with an incremental Pareto
     * frontier (vlsi/pareto.hh) maintained in the in-order sink. Point
     * order and values are element-wise identical to enumerate() when
     * the full grid runs; with DseStreamOptions::stableWindow set, the
     * enumeration may stop early and @ref DseStreamResult::points
     * holds a contiguous shard prefix of the serial order (the
     * frontier is exact for the points evaluated).
     */
    DseStreamResult
    enumerateStreamed(unsigned jobs,
                      const std::vector<PeConfig> &configs = allConfigs(),
                      const DseStreamOptions &options = {}) const;

    /**
     * Frequency grid for one (vt, vdd) per the methodology. The
     * near-threshold and subthreshold refinements are placed relative
     * to *this sweep's* tech model, not the nominal one.
     */
    std::vector<double> frequencyGridMhz(VtClass vt, double vdd) const;

    /**
     * Number of (config, vt, vdd, f) grid points attempted, i.e. the
     * size of the characterization sweep before timing-closure
     * pruning (the paper's "over 4,000 design points").
     */
    std::size_t
    gridSize(const std::vector<PeConfig> &configs = allConfigs()) const;

    /** Supply grid per VT library per the methodology. */
    static std::vector<double> supplyGrid(VtClass vt);

    /**
     * The energy-delay Pareto frontier of @p points, sorted by
     * ascending delay.
     */
    static std::vector<DesignPoint>
    paretoFrontier(std::vector<DesignPoint> points);

    double cpiFor(const PeConfig &config) const;

    const AreaPowerModel &areaPower() const { return model_; }

    const TechModel &tech() const { return tech_; }

  private:
    CpiTable cpi_;
    AreaPowerModel model_;
    TechModel tech_;
};

} // namespace tia

#endif // TIA_VLSI_DSE_HH
