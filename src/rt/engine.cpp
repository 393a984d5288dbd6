/**
 * @file
 * The lane engine: one event stream, any number of configuration lanes.
 *
 * Every configuration of a program sees the *same* dynamic event
 * stream; the only per-configuration differences are which loops a
 * config deems eligible and how the execution model folds conflicts
 * into costs.  LaneEngine exploits that: it consumes one stream (live
 * from the interpreter via LiveFeed, or from trace/batch.hpp's
 * replayDispatch) and maintains the shared dynamic structure — frame
 * stack, loop-instance stack, iteration counters, register-def
 * timestamps, one shadow write-map per instance, oracle evidence —
 * exactly once, while the per-lane model state (savings,
 * slowest-iteration accumulators, HELIX deltas) lives in parallel
 * arrays indexed [instanceSlot * L + lane] and the lane sets (model
 * masks, eligibility, conflict flags) are W = ceil(L / 64) words each.
 * The hot loop is therefore `for event { decode; for lane in set {
 * apply } }`, and the per-lane work only triggers at boundaries,
 * conflicts and phi resolutions.
 *
 * Shared-state soundness argument (why one copy suffices, whatever
 * the lane count):
 *  - frame/instance structure, entry/iteration timestamps, curIter and
 *    the stack-pointer samples depend only on the event stream;
 *  - register def timestamps are written under per-lane gates, but the
 *    written *values* are config-independent and lanes that fail the
 *    gate never read the slot, so one unconditional write serves all;
 *  - shadow-map contents only matter to eligible lanes, and every
 *    eligible lane would write identical records;
 *  - the hybrid predictor for a phi sees the identical resolution
 *    sequence in every lane where dep2 tracks it, so one shared
 *    predictor (keyed by phi) trains for the whole active-lane set;
 *  - oracle watches cover every loop whatever a lane's verdict, and
 *    their samples follow the instance structure, so one capture is
 *    every lane's evidence.
 *
 * tests/test_golden.cpp pins the reports this produces, cell by cell,
 * against digests taken from the per-configuration tracker it
 * replaced.
 */

#include "rt/engine.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_map>

#include "guard/fault.hpp"
#include "interp/machine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "predict/predictor.hpp"
#include "prof/phase.hpp"
#include "rt/shadow.hpp"
#include "support/error.hpp"
#include "support/text.hpp"
#include "trace/recorder.hpp"

namespace lp::rt {

using ir::Instruction;

namespace {

/**
 * Lane sets.  A set over L lanes is W = ceil(L / 64) words, lane l
 * being bit l % 64 of word l / 64; a row of sets (one per loop ordinal
 * or instance slot) is one flat vector, set r at [r * W, r * W + W).
 */
struct LaneSet
{
    static std::size_t words(std::size_t lanes) { return (lanes + 63) / 64; }
    static std::uint64_t bit(std::size_t l)
    {
        return std::uint64_t{1} << (l % 64);
    }
    static bool has(const std::uint64_t *set, std::size_t l)
    {
        return (set[l / 64] & bit(l)) != 0;
    }
    static void add(std::uint64_t *set, std::size_t l)
    {
        set[l / 64] |= bit(l);
    }
    static bool any(const std::uint64_t *set, std::size_t W)
    {
        return std::any_of(set, set + W,
                           [](std::uint64_t w) { return w != 0; });
    }
    /** Calls @p fn(lane) for each lane of word @p w that is in @p bits. */
    template <typename Fn>
    static void forEach(std::size_t w, std::uint64_t bits, Fn &&fn)
    {
        for (; bits; bits &= bits - 1)
            fn(static_cast<unsigned>(w * 64 + std::countr_zero(bits)));
    }
};

/** Applies one event stream to any number of configuration lanes. */
class LaneEngine
{
  public:
    LaneEngine(const ModulePlan &plan, const trace::BatchDispatchTable &table,
               const std::vector<LPConfig> &cfgs, OracleCapture *oracle)
        : plan_(plan), table_(table), cfgs_(cfgs), L_(cfgs.size()),
          W_(LaneSet::words(L_)), oracle_(oracle)
    {
        panicIf(L_ == 0, "engine without lanes");

        laneModel_.resize(L_);
        lanePdoallThr_.resize(L_);
        for (std::vector<std::uint64_t> *m :
             {&doallMask_, &pdoallMask_, &helixMask_, &dep1Mask_,
              &dep2Mask_, &reduc0Mask_, &singleSyncMask_})
            m->assign(W_, 0);
        for (std::size_t l = 0; l < L_; ++l) {
            const LPConfig &cfg = cfgs_[l];
            cfg.validate();
            laneModel_[l] = cfg.model;
            lanePdoallThr_[l] = cfg.pdoallSerialThreshold;
            std::vector<std::uint64_t> &modelMask =
                cfg.model == ExecModel::DoAll          ? doallMask_
                : cfg.model == ExecModel::PartialDoAll ? pdoallMask_
                                                       : helixMask_;
            LaneSet::add(modelMask.data(), l);
            if (cfg.dep == 1)
                LaneSet::add(dep1Mask_.data(), l);
            if (cfg.dep == 2)
                LaneSet::add(dep2Mask_.data(), l);
            if (cfg.reduc == 0)
                LaneSet::add(reduc0Mask_.data(), l);
            if (cfg.singleSyncDoacross)
                LaneSet::add(singleSyncMask_.data(), l);
        }

        // Per-loop lane facts: the static verdict each lane bakes in,
        // the tracked-prefix length (reductions are demoted to tracked
        // LCDs under reduc0) and the report each lane accumulates.
        const std::size_t numLoops = plan.numLoops();
        eligMask_.assign(numLoops * W_, 0);
        anyElig_.assign(numLoops, 0);
        anyEligReduc0_.assign(numLoops, 0);
        ncCount_.resize(numLoops);
        trackedAllCount_.resize(numLoops);
        laneTracked_.resize(numLoops * L_);
        reports_.resize(numLoops * L_);
        oracleSlots_.resize(numLoops);
        for (const auto &fp : plan.functionPlans()) {
            for (const LoopPlan &lplan : fp->loopPlans) {
                const std::size_t ord = lplan.ordinal;
                ncCount_[ord] =
                    static_cast<unsigned>(lplan.nonComputable.size());
                trackedAllCount_[ord] =
                    static_cast<unsigned>(lplan.trackedAll.size());
                for (std::size_t l = 0; l < L_; ++l) {
                    const LPConfig &cfg = cfgs_[l];
                    const SerialReason verdict =
                        staticVerdict(lplan, *fp, plan, cfg);
                    if (verdict == SerialReason::None)
                        LaneSet::add(&eligMask_[ord * W_], l);
                    laneTracked_[ord * L_ + l] = static_cast<unsigned>(
                        cfg.reduc == 0 ? lplan.trackedAll.size()
                                       : lplan.nonComputable.size());
                    LoopReport &rep = reports_[ord * L_ + l];
                    rep.label = lplan.loop ? lplan.loop->label() : "<?>";
                    rep.depth = lplan.loop ? lplan.loop->depth() : 0;
                    rep.staticReason = verdict;
                }
                for (std::size_t w = 0; w < W_; ++w) {
                    const std::uint64_t e = eligMask_[ord * W_ + w];
                    anyElig_[ord] |= e != 0;
                    anyEligReduc0_[ord] |= (e & reduc0Mask_[w]) != 0;
                }
                if (oracle_ && lplan.loop)
                    registerOracleWatches(lplan);
            }
        }
        if (oracle_)
            oracle_->seal();

        laneTotal_.assign(L_, 0);
        savingUp_.resize(L_);
        covered_.resize(L_);
    }

    /// @name Sink interface for trace::replayDispatch and LiveFeed
    /// @{
    void
    onFuncEnter(const ir::Function *fn)
    {
        (void)fn; // structure only; the plan is resolved per loop
        // Reuse dead frames above the live prefix.
        if (frameDepth_ == eframes_.size())
            eframes_.emplace_back();
        EFrame &f = eframes_[frameDepth_++];
        f.loopLo = instStack_.size();
        f.savingsBase = (frameDepth_ - 1) * L_;
        if (frameSavings_.size() < frameDepth_ * L_)
            frameSavings_.resize(frameDepth_ * L_);
        std::fill_n(frameSavings_.begin() +
                        static_cast<std::ptrdiff_t>(f.savingsBase),
                    L_, std::uint64_t{0});
    }

    void
    onFuncExit(std::uint64_t now)
    {
        // Close instances an early return left open, then propagate the
        // frame's savings to the parent.
        EFrame &f = eframes_[frameDepth_ - 1];
        while (instStack_.size() > f.loopLo)
            closeTop(now);
        const std::size_t sb = f.savingsBase;
        --frameDepth_;
        if (frameDepth_ == 0) {
            for (std::size_t l = 0; l < L_; ++l)
                laneTotal_[l] = frameSavings_[sb + l];
        } else {
            addSavings(&frameSavings_[sb]);
        }
    }

    /**
     * @param nowBefore clock before the block's charge
     * @param sp stack pointer at entry (read for header blocks only)
     */
    void
    onBlockEnter(std::uint64_t /*blockId*/,
                 const trace::BatchDispatchTable::BlockInfo &bi,
                 std::uint64_t nowBefore, std::uint64_t /*now*/,
                 std::uint64_t sp)
    {
        // Pop every instance that does not contain this block.
        EFrame &f = eframes_[frameDepth_ - 1];
        while (instStack_.size() > f.loopLo &&
               !instStack_.back().lplan->loop->contains(bi.bb))
            closeTop(nowBefore);

        // Loop entry or iteration boundary.
        if (bi.headerOrdinal >= 0) {
            const auto ord = static_cast<unsigned>(bi.headerOrdinal);
            if (instStack_.size() > f.loopLo &&
                instStack_.back().ord == ord)
                iterationBoundary(nowBefore, sp);
            else
                openInstance(ord, nowBefore, sp);
        }

        // Timestamp watched def sites in this block.
        for (std::uint32_t k = 0; k < bi.numWatches; ++k) {
            const trace::BatchDispatchTable::DefWatch &w =
                table_.defWatches[bi.firstWatch + k];
            // Per-lane gate: eligible loop AND slot inside the lane's
            // tracked prefix.  The written value is config-independent
            // and lanes failing the gate never read the slot, so one
            // write serves every passing lane.
            const bool some = w.regIndex >= ncCount_[w.loopOrdinal]
                                  ? anyEligReduc0_[w.loopOrdinal]
                                  : anyElig_[w.loopOrdinal];
            if (!some || w.regIndex >= trackedAllCount_[w.loopOrdinal])
                continue;
            for (std::size_t i = instStack_.size(); i > f.loopLo;) {
                BInst &inst = instStack_[--i];
                if (inst.ord == w.loopOrdinal) {
                    regLastDef_[inst.regsBase + w.regIndex] =
                        nowBefore + w.offsetInBlock;
                    regDefSeen_[inst.regsBase + w.regIndex] = 1;
                    break;
                }
            }
        }
    }

    void
    onPhi(const Instruction *phi, std::uint64_t bits)
    {
        PhiState &st = phiState(phi);
        if (st.oracleSlot >= 0)
            observeOracle(st, bits);
        if (!st.anyActive)
            return; // not a dep2-tracked LCD in any lane
        // Only the top-of-stack instance of the phi's own loop observes
        // the resolution.
        EFrame &f = eframes_[frameDepth_ - 1];
        if (instStack_.size() <= f.loopLo)
            return;
        BInst &inst = instStack_.back();
        if (inst.ord != st.ord)
            return;

        const bool carried = inst.curIter >= 1;
        predict::HybridOutcome out = st.pred.predictAndTrain(bits);
        if (!carried)
            return; // first resolution is the pre-loop initial value
        st.stats.predictions += 1;
        if (out.anyCorrect)
            return;
        st.stats.mispredicts += 1;

        const std::size_t B = inst.base;
        const std::uint64_t off = regPrevOff_[inst.regsBase + st.idx];
        for (std::size_t w = 0; w < W_; ++w) {
            const std::uint64_t hm = st.activeMask[w] & helixMask_[w];
            LaneSet::forEach(w, hm, [&](unsigned l) {
                dLargest_[B + l] = std::max(dLargest_[B + l], off);
                maxProd_[B + l] = std::max(maxProd_[B + l], off);
                minCons_[B + l] = 0; // the phi consumes at the top
            });
            anySyncM_[inst.wbase + w] |= hm;
            LaneSet::forEach(w, st.activeMask[w] & ~helixMask_[w],
                             [&](unsigned l) {
                                 registerConflictLane(inst, l);
                             });
        }
    }

    void
    onLoad(const Instruction *instr, std::uint64_t addr,
           std::uint64_t preciseNow)
    {
        ++tally_.memEvents;
        const std::uint64_t granule = addr >> 3;
        const bool isStack = interp::Memory::isStackAddress(addr);
        for (BInst &inst : instStack_) {
            if (!inst.shadow)
                continue; // no lane tracks this loop
            if (isStack && addr >= inst.spAtIterStart)
                continue; // iteration-private frame (cactus stack)
            if (inst.lplan->untrackedMem.count(instr))
                continue; // statically proven conflict-free
            const WriteRec *rec = inst.shadow->lookup(granule);
            if (rec && rec->iter < inst.curIter)
                noteMemConflict(inst, *rec,
                                preciseNow - inst.iterStartTs);
        }
    }

    void
    onStore(const Instruction *instr, std::uint64_t addr,
            std::uint64_t preciseNow)
    {
        ++tally_.memEvents;
        const std::uint64_t granule = addr >> 3;
        const bool isStack = interp::Memory::isStackAddress(addr);
        for (BInst &inst : instStack_) {
            if (!inst.shadow)
                continue;
            if (isStack && addr >= inst.spAtIterStart)
                continue;
            if (inst.lplan->untrackedMem.count(instr))
                continue;
            inst.shadow->record(granule, inst.curIter,
                                preciseNow - inst.iterStartTs);
        }
    }
    /// @}

    /**
     * Build every lane's report; call once after the stream ended.
     * @param serialCost the run's final clock
     */
    std::vector<ProgramReport>
    finish(const std::string &name, std::uint64_t serialCost)
    {
        panicIf(frameDepth_ != 0, "engine finished with live frames");

        // Predictor statistics: a lane sees a phi's shared statistics
        // when dep2 tracks it there (and a carried value was seen).
        for (const auto &[phi, st] : phiStates_) {
            (void)phi;
            if (st->stats.predictions == 0)
                continue;
            for (std::size_t w = 0; w < W_; ++w)
                LaneSet::forEach(w, st->activeMask[w], [&](unsigned l) {
                    LoopReport &lr = reports_[st->ord * L_ + l];
                    lr.regPredictions += st->stats.predictions;
                    lr.regMispredicts += st->stats.mispredicts;
                });
        }

        std::vector<ProgramReport> out;
        out.reserve(L_);
        for (std::size_t l = 0; l < L_; ++l)
            out.push_back(laneReport(l, name, serialCost));
        if (obs::metricsOn())
            publishTally(out);
        return out;
    }

  private:
    /**
     * Add what the pass saw to the registry.  What the loop reports
     * already hold is read from them: every lane counts every
     * instance, a lane's memory conflicts are its reports'
     * memConflicts, and a PDOALL lane's squashes are its conflicted
     * iterations.  A squash counter exists for each speculative model
     * with a lane in the pass; HELIX is non-speculative, so it has
     * none.
     */
    void
    publishTally(const std::vector<ProgramReport> &out) const
    {
        std::uint64_t loopInstances = 0;
        std::uint64_t laneConflicts = tally_.laneRegConflicts;
        std::uint64_t pdoallSquashes = 0;
        for (std::size_t i = 0; i < reports_.size(); ++i) {
            if (i % L_ == 0)
                loopInstances += reports_[i].instances;
            laneConflicts += reports_[i].memConflicts;
            if (LaneSet::has(pdoallMask_.data(), i % L_))
                pdoallSquashes += reports_[i].conflictIterations;
        }
        std::uint64_t loopReports = 0;
        for (const ProgramReport &rep : out)
            loopReports += rep.loops.size();

        obs::Registry &reg = obs::Registry::instance();
        reg.counter("engine.mem_events").add(tally_.memEvents);
        reg.counter("engine.loop_instances").add(loopInstances);
        reg.counter("engine.lane_conflicts").add(laneConflicts);
        if (LaneSet::any(pdoallMask_.data(), W_))
            reg.counter("engine.lane_squashes.pdoall").add(pdoallSquashes);
        if (LaneSet::any(doallMask_.data(), W_))
            reg.counter("engine.lane_squashes.doall")
                .add(tally_.doallSquashes);
        reg.counter("engine.loop_reports").add(loopReports);
    }

    struct EFrame
    {
        std::size_t loopLo = 0;      ///< instStack_ depth at entry
        std::size_t savingsBase = 0; ///< into frameSavings_
    };

    /** One dynamic loop instance (shared across lanes). */
    struct BInst
    {
        const LoopPlan *lplan = nullptr;
        unsigned ord = 0;
        std::uint64_t entryTs = 0;
        std::uint64_t iterStartTs = 0;
        std::uint64_t spAtIterStart = 0;
        std::uint64_t curIter = 0;
        std::uint64_t memConflicts = 0; ///< same for every eligible lane
        /** Null when no lane deems the loop eligible, which is all the
         *  load/store loop tests per instance. */
        ShadowWriteMap *shadow = nullptr;
        const std::uint64_t *eligMask = nullptr; ///< eligMask_ row, W_ words
        // The instance's stack depth is its slot, reused LIFO.
        std::size_t base = 0;     ///< slot * L_, into the SoA arrays
        std::size_t wbase = 0;    ///< slot * W_, into the per-slot sets
        std::size_t regsBase = 0; ///< into the reg arenas
        std::uint32_t nRegs = 0;  ///< trackedAll.size()
        std::size_t oracleBase = 0; ///< into oracleStates_
    };

    /** Predictor statistics of one phi (shared by its active lanes). */
    struct PredStats
    {
        std::uint64_t predictions = 0;
        std::uint64_t mispredicts = 0;
    };

    /** Per-phi state: shared predictor + stats, oracle slot. */
    struct PhiState
    {
        /** dep2 ∩ eligible ∩ in-prefix, W_ words (empty when the phi
         *  is no tracked LCD); anyActive = some lane in it. */
        std::vector<std::uint64_t> activeMask;
        bool anyActive = false;
        unsigned ord = 0;
        unsigned idx = 0; ///< index into trackedAll / the reg arena
        predict::HybridPredictor pred;
        PredStats stats;
        /** Loop the phi heads (for the oracle); -1 = not a header phi. */
        int headerOrd = -1;
        /** Index into oracleSlots_[headerOrd]; -1 = unwatched. */
        int oracleSlot = -1;
    };

    /** One oracle watch bound to a loop (index into the capture). */
    struct OracleSlot
    {
        unsigned watch; ///< OracleCapture watch index
        unsigned depth; ///< difference order - 1
    };

    /**
     * Register the loop's oracle watches: every SCEV-claimed phi (with
     * its claimed AddRec depth) and every tracked LCD (unclaimed,
     * watched at depth 1 so the oracle can also spot *missed* IVs).
     * The claims are config-independent, so watches are registered for
     * every loop whatever any lane's verdict.
     */
    void
    registerOracleWatches(const LoopPlan &lplan)
    {
        auto watch = [&](const Instruction *phi, unsigned depth,
                         bool claimed) {
            if (phi->type() != ir::Type::I64 && phi->type() != ir::Type::Ptr)
                return; // differencing f64 bits is meaningless
            unsigned w = oracle_->addWatch(
                {phi, lplan.loop->label(), phi->name(), depth, claimed});
            auto &slots = oracleSlots_[lplan.ordinal];
            oracleSlotOf_[phi] = static_cast<int>(slots.size());
            slots.push_back({w, depth});
        };
        for (unsigned i = 0; i < lplan.computablePhis.size(); ++i)
            watch(lplan.computablePhis[i], lplan.computableDepths[i], true);
        for (const TrackedPhi &tp : lplan.nonComputable)
            watch(tp.phi, 1, oracle_->isForcedClaim(tp.phi));
    }

    PhiState &
    phiState(const Instruction *phi)
    {
        auto it = phiStates_.find(phi);
        if (it != phiStates_.end())
            return *it->second;
        auto st = std::make_unique<PhiState>();
        const int ord = plan_.headerOrdinal(phi->parent());
        if (ord >= 0) {
            st->headerOrd = ord;
            auto os = oracleSlotOf_.find(phi);
            if (os != oracleSlotOf_.end())
                st->oracleSlot = os->second;
            const LoopPlan &lp =
                plan_.loopByOrdinal(static_cast<unsigned>(ord));
            auto ti = lp.trackedIndex.find(phi);
            if (ti != lp.trackedIndex.end()) {
                const auto o = static_cast<std::size_t>(ord);
                const bool demoted = ti->second >= ncCount_[o];
                st->activeMask.resize(W_);
                for (std::size_t w = 0; w < W_; ++w) {
                    std::uint64_t m = eligMask_[o * W_ + w] & dep2Mask_[w];
                    if (demoted)
                        m &= reduc0Mask_[w];
                    st->activeMask[w] = m;
                    st->anyActive |= m != 0;
                }
                st->ord = static_cast<unsigned>(ord);
                st->idx = ti->second;
            }
        }
        PhiState &ref = *st;
        phiStates_.emplace(phi, std::move(st));
        return ref;
    }

    /**
     * Oracle observation, independent of every lane's verdict (the
     * static claim being checked is config-independent).  Every header
     * visit resolves the phi to the next point of the claimed
     * recurrence, initial value included, so the whole sequence is
     * streamed.
     */
    void
    observeOracle(const PhiState &st, std::uint64_t bits)
    {
        EFrame &f = eframes_[frameDepth_ - 1];
        if (instStack_.size() <= f.loopLo ||
            static_cast<int>(instStack_.back().ord) != st.headerOrd)
            return;
        const BInst &inst = instStack_.back();
        const OracleSlot &os =
            oracleSlots_[inst.ord][static_cast<std::size_t>(st.oracleSlot)];
        OracleCapture::observe(
            oracleStates_[inst.oracleBase +
                          static_cast<std::size_t>(st.oracleSlot)],
            os.depth, bits);
    }

    ShadowWriteMap *
    acquireShadow()
    {
        if (!shadowFree_.empty()) {
            ShadowWriteMap *s = shadowFree_.back();
            shadowFree_.pop_back();
            s->reset();
            return s;
        }
        shadowPool_.push_back(std::make_unique<ShadowWriteMap>());
        return shadowPool_.back().get();
    }

    /** Per-lane savings land on the innermost open context (the
     *  current iteration, or the frame outside any loop). */
    void
    addSavings(const std::uint64_t *src)
    {
        EFrame &f = eframes_[frameDepth_ - 1];
        std::uint64_t *dst =
            instStack_.size() > f.loopLo
                ? &ciSavings_[instStack_.back().base]
                : &frameSavings_[f.savingsBase];
        for (std::size_t l = 0; l < L_; ++l)
            dst[l] += src[l];
    }

    void
    openInstance(unsigned ord, std::uint64_t now, std::uint64_t sp)
    {
        // Unconditional: even loops every lane deems sequential get
        // instance/iteration accounting.
        const LoopPlan &lp = plan_.loopByOrdinal(ord);
        const std::size_t slot = instStack_.size();
        if ((slot + 1) * L_ > ciSavings_.size()) {
            const std::size_t n = (slot + 1) * L_;
            ciSavings_.resize(n);
            tcSavings_.resize(n);
            iterSlow_.resize(n);
            phaseSlow_.resize(n);
            pAccum_.resize(n);
            dLargest_.resize(n);
            maxProd_.resize(n);
            minCons_.resize(n);
            cIters_.resize(n);
            anyConflictM_.resize((slot + 1) * W_);
            conflictedM_.resize((slot + 1) * W_);
            anySyncM_.resize((slot + 1) * W_);
        }

        BInst inst;
        inst.lplan = &lp;
        inst.ord = ord;
        inst.entryTs = now;
        inst.iterStartTs = now;
        inst.spAtIterStart = sp;
        inst.eligMask = &eligMask_[ord * W_];
        inst.base = slot * L_;
        inst.wbase = slot * W_;
        inst.nRegs = static_cast<std::uint32_t>(lp.trackedAll.size());
        inst.regsBase = regsTop_;
        regsTop_ += inst.nRegs;
        if (regLastDef_.size() < regsTop_) {
            regLastDef_.resize(regsTop_);
            regPrevOff_.resize(regsTop_);
            regDefSeen_.resize(regsTop_);
        }
        for (std::size_t r = inst.regsBase; r < regsTop_; ++r) {
            regLastDef_[r] = 0;
            regPrevOff_[r] = 0;
            regDefSeen_[r] = 0;
        }
        if (oracle_) {
            inst.oracleBase = oracleTop_;
            oracleTop_ += oracleSlots_[ord].size();
            if (oracleStates_.size() < oracleTop_)
                oracleStates_.resize(oracleTop_);
            std::fill(oracleStates_.begin() +
                          static_cast<std::ptrdiff_t>(inst.oracleBase),
                      oracleStates_.begin() +
                          static_cast<std::ptrdiff_t>(oracleTop_),
                      OracleCapture::State{});
        }
        // A shadow map only matters to eligible lanes; every eligible
        // lane would write identical records, so one map serves them.
        inst.shadow = anyElig_[ord] ? acquireShadow() : nullptr;

        const std::size_t B = inst.base;
        for (std::size_t l = 0; l < L_; ++l) {
            ciSavings_[B + l] = 0;
            tcSavings_[B + l] = 0;
            iterSlow_[B + l] = 0;
            phaseSlow_[B + l] = 0;
            pAccum_[B + l] = 0;
            dLargest_[B + l] = 0;
            maxProd_[B + l] = 0;
            minCons_[B + l] = ~std::uint64_t{0};
            cIters_[B + l] = 0;
        }
        for (std::size_t w = inst.wbase; w < inst.wbase + W_; ++w) {
            anyConflictM_[w] = 0;
            conflictedM_[w] = 0;
            anySyncM_[w] = 0;
        }
        instStack_.push_back(inst);

        const std::size_t ro = static_cast<std::size_t>(ord) * L_;
        for (std::size_t l = 0; l < L_; ++l)
            reports_[ro + l].instances += 1;
    }

    /** A register LCD manifesting at the start of the current
     *  iteration, in lane @p l. */
    void
    registerConflictLane(BInst &inst, unsigned l)
    {
        LaneSet::add(&anyConflictM_[inst.wbase], l);
        ++tally_.laneRegConflicts;
        if (LaneSet::has(pdoallMask_.data(), l) &&
            !LaneSet::has(&conflictedM_[inst.wbase], l)) {
            const std::size_t i = inst.base + l;
            pAccum_[i] += phaseSlow_[i];
            phaseSlow_[i] = 0;
            LaneSet::add(&conflictedM_[inst.wbase], l);
            cIters_[i] += 1;
        }
    }

    /** A cross-iteration RAW through memory, fanned out over the
     *  eligible lanes. */
    void
    noteMemConflict(BInst &inst, const WriteRec &rec,
                    std::uint64_t consumerOffset)
    {
        inst.memConflicts += 1;
        const std::size_t B = inst.base;
        // HELIX: synchronize producer and consumer; the delay per
        // iteration is the forward distance spread over the
        // dependence distance.
        const std::uint64_t dist = inst.curIter - rec.iter;
        const bool fwd = rec.offset > consumerOffset;
        const std::uint64_t delta =
            fwd ? (rec.offset - consumerOffset + dist - 1) / dist : 0;
        for (std::size_t w = 0; w < W_; ++w) {
            const std::uint64_t m = inst.eligMask[w];
            anyConflictM_[inst.wbase + w] |= m;
            // DOALL: anyConflict alone serializes the instance.
            // PDOALL: the conflict squashes the current phase.
            const std::uint64_t todo =
                m & pdoallMask_[w] & ~conflictedM_[inst.wbase + w];
            LaneSet::forEach(w, todo, [&](unsigned l) {
                pAccum_[B + l] += phaseSlow_[B + l];
                phaseSlow_[B + l] = 0;
                cIters_[B + l] += 1;
            });
            conflictedM_[inst.wbase + w] |= todo;
            const std::uint64_t hm = m & helixMask_[w];
            LaneSet::forEach(w, hm, [&](unsigned l) {
                if (fwd)
                    dLargest_[B + l] = std::max(dLargest_[B + l], delta);
                maxProd_[B + l] = std::max(maxProd_[B + l], rec.offset);
                minCons_[B + l] =
                    std::min(minCons_[B + l], consumerOffset);
            });
            anySyncM_[inst.wbase + w] |= hm;
        }
    }

    /** Close the finishing iteration of the top-of-stack instance. */
    void
    iterationBoundary(std::uint64_t now, std::uint64_t sp)
    {
        BInst &inst = instStack_.back();
        const std::size_t B = inst.base;
        const std::size_t ro = static_cast<std::size_t>(inst.ord) * L_;
        const std::uint64_t serialIterCost = now - inst.iterStartTs;
        for (std::size_t l = 0; l < L_; ++l) {
            const std::uint64_t savings =
                std::min(ciSavings_[B + l], serialIterCost);
            const std::uint64_t adj = serialIterCost - savings;
            tcSavings_[B + l] += savings;
            iterSlow_[B + l] = std::max(iterSlow_[B + l], adj);
            phaseSlow_[B + l] = std::max(phaseSlow_[B + l], adj);
        }

        if (inst.shadow && inst.nRegs) {
            // Producer offsets of the iteration that just ended; the
            // values are config-independent, each lane reads only its
            // own tracked prefix.
            for (std::uint32_t r = 0; r < inst.nRegs; ++r) {
                const std::size_t ri = inst.regsBase + r;
                regPrevOff_[ri] = regDefSeen_[ri]
                                      ? regLastDef_[ri] - inst.iterStartTs
                                      : 0;
            }
            // dep1 lowers the LCD to memory; under HELIX it is a
            // frequent LCD satisfied by one sync per tracked register.
            for (std::size_t w = 0; w < W_; ++w)
                LaneSet::forEach(
                    w, inst.eligMask[w] & dep1Mask_[w] & helixMask_[w],
                    [&](unsigned l) {
                        const unsigned lt = laneTracked_[ro + l];
                        if (lt == 0)
                            return;
                        for (unsigned r = 0; r < lt; ++r) {
                            const std::uint64_t off =
                                regPrevOff_[inst.regsBase + r];
                            dLargest_[B + l] = std::max(dLargest_[B + l], off);
                            maxProd_[B + l] = std::max(maxProd_[B + l], off);
                        }
                        minCons_[B + l] = 0; // the phi consumes at the top
                        LaneSet::add(&anySyncM_[inst.wbase], l);
                    });
        }

        inst.curIter += 1;
        inst.iterStartTs = now;
        inst.spAtIterStart = sp;
        for (std::size_t l = 0; l < L_; ++l)
            ciSavings_[B + l] = 0;

        // dep1 under a speculative model: the lowered LCD conflicts at
        // the top of every iteration after the first.
        for (std::size_t w = 0; w < W_; ++w) {
            conflictedM_[inst.wbase + w] = 0;
            LaneSet::forEach(
                w, inst.eligMask[w] & dep1Mask_[w] & ~helixMask_[w],
                [&](unsigned l) {
                    if (laneTracked_[ro + l] != 0)
                        registerConflictLane(inst, l);
                });
        }
    }

    /** Close the top-of-stack instance and apply every lane's model
     *  (pop first: savings go to the parent). */
    void
    closeTop(std::uint64_t now)
    {
        const BInst inst = instStack_.back();
        instStack_.pop_back();
        regsTop_ = inst.regsBase;

        if (oracle_) {
            const auto &slots = oracleSlots_[inst.ord];
            for (std::size_t i = 0; i < slots.size(); ++i)
                oracle_->recordInstance(slots[i].watch,
                                        oracleStates_[inst.oracleBase + i],
                                        slots[i].depth);
            oracleTop_ = inst.oracleBase;
        }

        // The trailing partial iteration (the final header visit that
        // failed the trip condition) plus anything after the last
        // boundary.
        const std::size_t B = inst.base;
        const std::uint64_t tailSerial = now - inst.iterStartTs;
        const std::uint64_t rawSerial = now - inst.entryTs;
        if (inst.shadow)
            shadowFree_.push_back(inst.shadow);

        // DOALL is all-or-nothing speculation: any conflict discards
        // the whole instance's parallel execution.
        const std::uint64_t *anyConflict = &anyConflictM_[inst.wbase];
        const std::uint64_t *anySync = &anySyncM_[inst.wbase];
        for (std::size_t w = 0; w < W_; ++w)
            tally_.doallSquashes += static_cast<std::uint64_t>(
                std::popcount(inst.eligMask[w] & doallMask_[w] &
                              anyConflict[w]));

        const std::size_t ro = static_cast<std::size_t>(inst.ord) * L_;
        for (std::size_t l = 0; l < L_; ++l) {
            const bool eligible = LaneSet::has(inst.eligMask, l);
            const std::uint64_t tailSavings =
                std::min(ciSavings_[B + l], tailSerial);
            const std::uint64_t tailAdj = tailSerial - tailSavings;
            const std::uint64_t totalChild =
                tcSavings_[B + l] + tailSavings;
            const std::uint64_t adjSerial = rawSerial - totalChild;

            // Apply the execution model.
            bool parallelized = false;
            std::uint64_t parallel = adjSerial;
            if (eligible && inst.curIter > 0) {
                switch (laneModel_[l]) {
                  case ExecModel::DoAll:
                    if (!LaneSet::has(anyConflict, l)) {
                        parallel = iterSlow_[B + l] + tailAdj;
                        parallelized = true;
                    }
                    break;
                  case ExecModel::PartialDoAll: {
                    double conflictFrac =
                        static_cast<double>(cIters_[B + l]) /
                        static_cast<double>(inst.curIter);
                    if (conflictFrac <= lanePdoallThr_[l]) {
                        parallel = pAccum_[B + l] + phaseSlow_[B + l] +
                                   tailAdj;
                        parallelized = true;
                    }
                    break;
                  }
                  case ExecModel::Helix: {
                    // HELIX: one synchronization per distinct LCD;
                    // classic DOACROSS (ablation): a single sync window
                    // spanning from the first consumer to the last
                    // producer of the iteration.
                    std::uint64_t delta = dLargest_[B + l];
                    if (LaneSet::has(singleSyncMask_.data(), l)) {
                        delta = 0;
                        if (LaneSet::has(anySync, l) &&
                            maxProd_[B + l] > minCons_[B + l])
                            delta = maxProd_[B + l] - minCons_[B + l];
                    }
                    std::uint64_t t = iterSlow_[B + l] +
                                      delta * inst.curIter + tailAdj;
                    if (t <= adjSerial) {
                        parallel = t;
                        parallelized = true;
                    }
                    break;
                  }
                }
            }
            if (parallel > adjSerial) {
                parallel = adjSerial;
                parallelized = false;
            }

            // Aggregate into the static loop's report.
            LoopReport &rep = reports_[ro + l];
            rep.iterations += inst.curIter;
            rep.serialCost += rawSerial;
            rep.adjustedCost += adjSerial;
            rep.parallelCost += parallel;
            rep.memConflicts += eligible ? inst.memConflicts : 0;
            rep.conflictIterations += cIters_[B + l];
            if (!parallelized)
                rep.serializedInstances += 1;
            if (parallelized)
                covered_[l].emplace_back(inst.entryTs, now);

            // Everything saved inside this region, plus the model's own
            // saving, flows to the enclosing iteration/function.
            savingUp_[l] = rawSerial - parallel;
        }
        addSavings(savingUp_.data());
    }

    /** Lane @p l's finished report. */
    ProgramReport
    laneReport(std::size_t l, const std::string &name,
               std::uint64_t serialCost)
    {
        const LPConfig &cfg = cfgs_[l];
        ProgramReport rep;
        rep.program = name;
        rep.config = cfg;
        rep.serialCost = serialCost;
        rep.parallelCost = rep.serialCost - laneTotal_[l];

        // Coverage: merge the (nested-or-disjoint) covered intervals.
        auto &covered = covered_[l];
        std::sort(covered.begin(), covered.end());
        std::uint64_t coveredCost = 0;
        std::uint64_t hi = 0;
        bool first = true;
        for (const auto &[a, b] : covered) {
            if (first || a >= hi) {
                coveredCost += b - a;
                hi = b;
                first = false;
            } else if (b > hi) {
                coveredCost += b - hi;
                hi = b;
            }
        }
        rep.coverage = rep.serialCost == 0
            ? 0.0
            : static_cast<double>(coveredCost) /
                  static_cast<double>(rep.serialCost);

        // Census.
        Census &c = rep.census;
        for (std::size_t ord = 0; ord < plan_.numLoops(); ++ord) {
            const LoopPlan &lplan =
                plan_.loopByOrdinal(static_cast<unsigned>(ord));
            if (!lplan.loop)
                continue;
            c.staticLoops += 1;
            if (lplan.loop->isCanonical())
                c.canonicalLoops += 1;
            c.computableIvs += lplan.computablePhis.size();
            c.reductions += lplan.reductions.size();
            if (lplan.hasCalls())
                c.loopsWithCalls += 1;

            const LoopReport &lr = reports_[ord * L_ + l];
            if (lr.memConflicts > 0 && lr.iterations > 0) {
                double frac = static_cast<double>(lr.conflictIterations) /
                              static_cast<double>(lr.iterations);
                if (frac > 0.05)
                    c.frequentMemLcdLoops += 1;
                else
                    c.infrequentMemLcdLoops += 1;
            }
        }
        for (const auto &[phi, st] : phiStates_) {
            (void)phi;
            if (st->stats.predictions == 0 ||
                !LaneSet::has(st->activeMask.data(), l))
                continue;
            double hit = 1.0 - static_cast<double>(st->stats.mispredicts) /
                                   static_cast<double>(st->stats.predictions);
            if (hit >= cfg.predictableThreshold)
                c.predictableRegLcds += 1;
            else
                c.unpredictableRegLcds += 1;
        }

        // Per-loop reports (only loops that actually executed).
        for (std::size_t ord = 0; ord < plan_.numLoops(); ++ord) {
            const LoopReport &lr = reports_[ord * L_ + l];
            if (lr.instances > 0)
                rep.loops.push_back(lr);
        }
        std::sort(rep.loops.begin(), rep.loops.end(),
                  [](const LoopReport &a, const LoopReport &b) {
                      return a.serialCost > b.serialCost;
                  });
        return rep;
    }

    const ModulePlan &plan_;
    const trace::BatchDispatchTable &table_;
    const std::vector<LPConfig> cfgs_;
    const std::size_t L_;
    const std::size_t W_; ///< words per lane set
    OracleCapture *const oracle_;

    // Per-ordinal lane facts (flat, [ord * L_ + lane]; the eligible
    // lane sets [ord * W_ + word], with their any-lane summaries).
    std::vector<std::uint64_t> eligMask_;
    std::vector<std::uint8_t> anyElig_;
    std::vector<std::uint8_t> anyEligReduc0_;
    std::vector<unsigned> ncCount_;
    std::vector<unsigned> trackedAllCount_;
    std::vector<unsigned> laneTracked_;
    std::vector<LoopReport> reports_;

    // Per-lane configuration facts.
    std::vector<ExecModel> laneModel_;
    std::vector<double> lanePdoallThr_;
    // Per-lane configuration facts as lane sets (W_ words each).
    std::vector<std::uint64_t> doallMask_;
    std::vector<std::uint64_t> pdoallMask_;
    std::vector<std::uint64_t> helixMask_;
    std::vector<std::uint64_t> dep1Mask_;
    std::vector<std::uint64_t> dep2Mask_;
    std::vector<std::uint64_t> reduc0Mask_;
    std::vector<std::uint64_t> singleSyncMask_;

    /** What the pass saw that no report holds, published by
     *  publishTally(): load/store events (shared, counted once),
     *  register-LCD conflicts and DOALL squashes (both per lane). */
    struct Tally
    {
        std::uint64_t memEvents = 0;
        std::uint64_t laneRegConflicts = 0;
        std::uint64_t doallSquashes = 0;
    } tally_;

    // Shared dynamic structure.
    std::vector<EFrame> eframes_;
    std::size_t frameDepth_ = 0;
    std::vector<BInst> instStack_;
    std::vector<std::uint64_t> frameSavings_; ///< [frame * L_ + lane]
    std::vector<std::uint64_t> laneTotal_;
    std::vector<std::uint64_t> savingUp_; ///< scratch, one per lane
    /** Per-lane [entry, exit) clocks of parallelized instances. */
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        covered_;

    // Per-instance-slot, per-lane model state ([slot * L_ + lane]).
    std::vector<std::uint64_t> ciSavings_; ///< current iteration's
    std::vector<std::uint64_t> tcSavings_; ///< total child savings
    std::vector<std::uint64_t> iterSlow_;  ///< slowest adjusted iteration
    std::vector<std::uint64_t> phaseSlow_; ///< PDOALL, current phase
    std::vector<std::uint64_t> pAccum_;    ///< PDOALL, committed phases
    std::vector<std::uint64_t> dLargest_;  ///< HELIX delta
    std::vector<std::uint64_t> maxProd_;   ///< DOACROSS single-sync
    std::vector<std::uint64_t> minCons_;
    std::vector<std::uint64_t> cIters_;    ///< conflicted iterations
    // Per-instance-slot lane sets ([slot * W_ + word]).
    std::vector<std::uint64_t> anyConflictM_;
    std::vector<std::uint64_t> conflictedM_; ///< this iteration
    std::vector<std::uint64_t> anySyncM_;

    // Shared register-def arenas (stacked per open instance).
    std::vector<std::uint64_t> regLastDef_;
    std::vector<std::uint64_t> regPrevOff_;
    std::vector<std::uint8_t> regDefSeen_;
    std::size_t regsTop_ = 0;

    // Oracle watches by loop ordinal, and the per-instance difference
    // states (stacked like the register arena); empty without oracle.
    std::vector<std::vector<OracleSlot>> oracleSlots_;
    std::unordered_map<const Instruction *, int> oracleSlotOf_;
    std::vector<OracleCapture::State> oracleStates_;
    std::size_t oracleTop_ = 0;

    /** Shadow maps are acquired per instance and returned, still warm
     *  (reset is an epoch bump), when it closes. */
    std::vector<std::unique_ptr<ShadowWriteMap>> shadowPool_;
    std::vector<ShadowWriteMap *> shadowFree_;

    std::unordered_map<const Instruction *, std::unique_ptr<PhiState>>
        phiStates_;
};

/**
 * The live event source: an interpreter sink that hands the engine
 * the samples trace::replayDispatch would have reconstructed — block
 * id, the clock before and after the block's charge, the stack
 * pointer, and the precise clock at each load and store.
 */
class LiveFeed : public interp::ExecListener
{
  public:
    LiveFeed(LaneEngine &engine, const trace::BatchDispatchTable &table)
        : engine_(engine), table_(table)
    {}

    void attach(const interp::Machine &m) { machine_ = &m; }

    void
    onFunctionEnter(const ir::Function *fn) override
    {
        engine_.onFuncEnter(fn);
    }

    void
    onFunctionExit(const ir::Function *) override
    {
        engine_.onFuncExit(machine_->cost());
    }

    void
    onBlockEnter(const ir::BasicBlock *bb) override
    {
        const std::uint32_t id = bb->globalIndex();
        const trace::BatchDispatchTable::BlockInfo &bi = table_.blocks[id];
        inHeader_ = bi.headerOrdinal >= 0;
        const std::uint64_t now = machine_->cost();
        engine_.onBlockEnter(id, bi, now - bi.size, now,
                             machine_->stackPointer());
    }

    void
    onPhiResolved(const Instruction *phi, std::uint64_t bits) override
    {
        // Phis resolve at the top of the block just entered; like the
        // Recorder, only loop headers' phis reach the engine.
        if (inHeader_)
            engine_.onPhi(phi, bits);
    }

    void
    onLoad(const Instruction *instr, std::uint64_t addr) override
    {
        engine_.onLoad(instr, addr, machine_->preciseCost());
    }

    void
    onStore(const Instruction *instr, std::uint64_t addr) override
    {
        engine_.onStore(instr, addr, machine_->preciseCost());
    }

  private:
    LaneEngine &engine_;
    const trace::BatchDispatchTable &table_;
    const interp::Machine *machine_ = nullptr;
    bool inHeader_ = false;
};

} // namespace

trace::BatchDispatchTable
buildDispatchTable(const ModulePlan &plan)
{
    trace::BatchDispatchTable table =
        trace::buildBatchDispatchTable(plan.module());
    for (const auto &fp : plan.functionPlans())
        for (const LoopPlan &lplan : fp->loopPlans)
            if (lplan.loop)
                table.blocks[lplan.loop->header()->globalIndex()]
                    .headerOrdinal =
                    static_cast<std::int32_t>(lplan.ordinal);

    // Def watches, flattened block-major (each block keeps the plan's
    // watch order).
    std::vector<const std::vector<PlannedDefWatch> *> byBlock(
        table.blocks.size(), nullptr);
    for (const auto &[bb, ws] : plan.defWatchPlan())
        byBlock[bb->globalIndex()] = &ws;
    for (std::size_t b = 0; b < byBlock.size(); ++b) {
        trace::BatchDispatchTable::BlockInfo &bi = table.blocks[b];
        bi.firstWatch = static_cast<std::uint32_t>(table.defWatches.size());
        if (!byBlock[b])
            continue;
        for (const PlannedDefWatch &w : *byBlock[b])
            table.defWatches.push_back(
                {w.loopOrdinal, w.regIndex, w.offsetInBlock});
        bi.numWatches = static_cast<std::uint32_t>(byBlock[b]->size());
    }
    return table;
}

trace::Trace
recordTrace(const ir::Module &mod, const trace::BatchDispatchTable &table,
            const guard::RunBudget &budget)
{
    prof::ScopedPhase phase("record");
    trace::Recorder rec(table);
    interp::Machine machine(mod, nullptr);
    machine.setBudget(budget);
    machine.setRecorder(&rec);
    machine.run();
    phase.addInstructions(machine.cost());
    return rec.finish(machine.cost());
}

std::vector<ProgramReport>
evaluate(const ModulePlan &plan, const trace::BatchDispatchTable &table,
         const trace::Trace *t, const std::vector<LPConfig> &cfgs,
         const std::string &name, OracleCapture *oracle)
{
    if (cfgs.empty())
        return {};
    if (t && (t->numFunctions != table.functions.size() ||
              t->numBlocks != table.blocks.size()))
        throw IoError("trace of " + name +
                      " does not match the module (trace: " +
                      std::to_string(t->numFunctions) + " functions / " +
                      std::to_string(t->numBlocks) + " blocks, module: " +
                      std::to_string(table.functions.size()) + " / " +
                      std::to_string(table.blocks.size()) + ")");

    std::unique_ptr<LaneEngine> engine;
    {
        prof::ScopedPhase phase("plan");
        guard::faultPoint("engine");
        engine = std::make_unique<LaneEngine>(plan, table, cfgs, oracle);
    }
    std::uint64_t finalCost = 0;
    if (t) {
        // Test and benchmark source: one decode of the trace.
        prof::ScopedPhase phase("replay_batch");
        trace::replayDispatch(table, *t, *engine);
        finalCost = t->finalCost;
        // Every lane advanced by the whole clock.
        phase.addInstructions(finalCost *
                              static_cast<std::uint64_t>(cfgs.size()));
    } else {
        prof::ScopedPhase phase("interpret");
        LiveFeed feed(*engine, table);
        interp::Machine machine(plan.module(), &feed);
        feed.attach(machine);
        machine.run();
        finalCost = machine.cost();
        phase.addInstructions(finalCost);
    }

    prof::ScopedPhase phase("report");
    std::vector<ProgramReport> reports = engine->finish(name, finalCost);
    LP_LOG_INFO("%s: %zu configuration lane(s) from one %s stream, final "
                "cost %llu",
                name.c_str(), cfgs.size(), t ? "replayed" : "live",
                static_cast<unsigned long long>(finalCost));
    return reports;
}

} // namespace lp::rt
