/**
 * @file
 * Randomized architectural-equivalence property test.
 *
 * Generates random looping single-PE programs — random ALU/scratchpad
 * operations, random register dependences (exercising forwarding and
 * split-ALU bubbles), random datapath predicate writes and
 * data-dependent branch pairs (exercising predicate hazards,
 * speculation, flush/rollback and the forbidden-instruction rules) —
 * and checks that every one of the 32 microarchitectures produces
 * exactly the architectural state of the functional reference.
 */

#include <random>

#include <gtest/gtest.h>

#include "core/assembler.hh"
#include "sim/functional.hh"
#include "uarch/cycle_fabric.hh"

namespace tia {
namespace {

constexpr unsigned kLoopIterations = 40;

/**
 * Build a random program structured as a 16-state loop:
 * states 0..13 hold random work, state 14 advances the iteration
 * counter in r0 and compares against the limit (a datapath write of
 * p7), state 15 either loops (p7 = 0) or halts.
 */
Program
randomProgram(std::mt19937 &rng)
{
    // Branch pairs emit two instructions per state, so give the PE a
    // 32-entry store (NIns is an architecture parameter; this also
    // exercises a non-default parameterization end to end).
    ArchParams params;
    params.numInstructions = 32;
    auto pick = [&](unsigned bound) {
        return std::uniform_int_distribution<unsigned>(0, bound - 1)(rng);
    };

    // Candidate body operations: a mix of ALU classes plus scratchpad.
    static const Op body_ops[] = {
        Op::Add, Op::Sub,  Op::Mul,  Op::Mulhu, Op::And,  Op::Or,
        Op::Xor, Op::Sll,  Op::Srl,  Op::Sra,   Op::Clz,  Op::Ctz,
        Op::Popc, Op::Min, Op::Umax, Op::Bswap, Op::Lsw,  Op::Ssw,
    };
    static const Op cmp_ops[] = {Op::Eq,  Op::Ne,  Op::Ult,
                                 Op::Slt, Op::Uge, Op::Sle};

    auto state_pattern = [&](unsigned state) {
        std::string pattern = "XXXX";
        for (int bit = 3; bit >= 0; --bit)
            pattern += ((state >> bit) & 1u) ? '1' : '0';
        return pattern;
    };
    auto next_state_set = [&](unsigned next) {
        std::string set = "ZZZZ";
        for (int bit = 3; bit >= 0; --bit)
            set += ((next >> bit) & 1u) ? '1' : '0';
        return set;
    };
    // Registers r1..r6 are scratch; r0 is the loop counter. Scratchpad
    // addresses stay tiny.
    auto reg = [&] { return "%r" + std::to_string(1 + pick(6)); };
    auto src = [&]() -> std::string {
        switch (pick(3)) {
          case 0:
            return reg();
          case 1:
            return std::string("#") + std::to_string(pick(64));
          default:
            return std::string("#") + std::to_string(rng());
        }
    };

    std::string source;
    // Predicates p4..p6 hold random branch conditions.
    for (unsigned state = 0; state < 13; ++state) {
        const std::string when = state_pattern(state);
        const std::string advance = next_state_set(state + 1);
        switch (pick(4)) {
          case 0: { // plain operation
            const Op op = body_ops[pick(std::size(body_ops))];
            const OpInfo &info = opInfo(op);
            std::string operands;
            if (op == Op::Lsw) {
                // r7 is never written and stays zero, bounding the
                // scratchpad address to the immediate.
                operands = std::string(" ") + reg() + ", #" +
                           std::to_string(pick(16)) + ", %r7";
            } else if (op == Op::Ssw) {
                operands =
                    " #" + std::to_string(pick(16)) + ", " + reg();
            } else if (info.numSrcs == 1) {
                operands = std::string(" ") + reg() + ", " + src();
            } else {
                // Keep the first source a register so at most one
                // immediate appears (the encoding has a single field).
                operands = std::string(" ") + reg() + ", " + reg() +
                           ", " + src();
            }
            source += "when %p == " + when + ": " +
                      std::string(info.mnemonic) + operands + "; set %p = " +
                      advance + ";\n";
            break;
          }
          case 1: { // datapath predicate write
            const Op op = cmp_ops[pick(std::size(cmp_ops))];
            const unsigned pred = 4 + pick(3);
            source += "when %p == " + when + ": " +
                      std::string(opInfo(op).mnemonic) + " %p" +
                      std::to_string(pred) + ", " + reg() + ", " + src() +
                      "; set %p = " + advance + ";\n";
            break;
          }
          case 2: { // branch pair consuming a condition predicate
            const unsigned pred = 4 + pick(3);
            std::string taken = when;
            std::string fallthrough = when;
            taken[7 - pred] = '1';
            fallthrough[7 - pred] = '0';
            source += "when %p == " + taken + ": add " + reg() + ", " +
                      reg() + ", #1; set %p = " + advance + ";\n";
            source += "when %p == " + fallthrough + ": xor " + reg() +
                      ", " + reg() + ", #3; set %p = " + advance + ";\n";
            break;
          }
          default: { // back-to-back dependence chain on one register
            const std::string r = reg();
            source += "when %p == " + when + ": add " + r + ", " + r +
                      ", " + r + "; set %p = " + advance + ";\n";
            break;
          }
        }
    }
    // State 13: advance the iteration counter; state 14: compare it;
    // state 15: loop back or halt on p7.
    source += "when %p == " + state_pattern(13) + ": add %r0, %r0, #1; "
              "set %p = " + next_state_set(14) + ";\n";
    source += "when %p == " + state_pattern(14) + ": uge %p7, %r0, #" +
              std::to_string(kLoopIterations) +
              "; set %p = " + next_state_set(15) + ";\n";
    source += "when %p == 0XXX1111: nop; set %p = ZZZZ0000;\n";
    source += "when %p == 1XXX1111: halt;\n";

    return assemble(source, params);
}

struct ArchState
{
    std::vector<Word> regs;
    std::uint64_t preds;
    std::vector<Word> scratchpad;
    std::uint64_t retired;

    bool operator==(const ArchState &) const = default;
};

class RandomEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomEquivalence, AllMicroarchitecturesMatchFunctional)
{
    std::mt19937 rng(GetParam() * 7919 + 13);
    const Program program = randomProgram(rng);
    FabricBuilder builder(program.params, 1);
    const FabricConfig config = builder.build();

    FunctionalFabric golden(config, program);
    ASSERT_EQ(golden.run(), RunStatus::Halted) << program.toString();
    const ArchState expected{golden.pe(0).regs(), golden.pe(0).preds(),
                             golden.pe(0).scratchpad(),
                             golden.pe(0).dynamicInstructions()};

    std::vector<PeConfig> configs = allConfigs();
    for (const auto &shape : allShapes()) {
        configs.push_back({shape, true, false, true});  // +P+N
        configs.push_back({shape, true, true, true});   // +P+N+Q
    }
    for (const PeConfig &uarch : configs) {
        CycleFabric fabric(config, program, uarch);
        ASSERT_EQ(fabric.run(2'000'000), RunStatus::Halted)
            << uarch.name() << "\n"
            << program.toString();
        const PipelinedPe &pe = fabric.pe(0);
        const ArchState actual{pe.regs(), pe.preds(), pe.scratchpad(),
                               pe.counters().retired};
        ASSERT_EQ(actual, expected)
            << uarch.name() << "\n"
            << program.toString();
        // Counter identity at halt.
        const PerfCounters &c = pe.counters();
        EXPECT_EQ(c.cycles, c.retired + c.quashed + c.predicateHazard +
                                c.dataHazard + c.forbidden + c.noTrigger)
            << uarch.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Programs, RandomEquivalence,
                         ::testing::Range(0u, 25u));

} // namespace
} // namespace tia
