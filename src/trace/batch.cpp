#include "trace/batch.hpp"

namespace lp::trace {

BatchDispatchTable
buildBatchDispatchTable(const ir::Module &mod)
{
    BatchDispatchTable table;
    table.functions.reserve(mod.functions().size());
    for (const auto &fn : mod.functions()) {
        table.functions.push_back(fn.get());
        for (const auto &bb : fn->blocks()) {
            fatalIf(bb->globalIndex() != table.blocks.size(),
                    "block ids of @" + fn->name() +
                        " are stale: finalize the module first");
            BatchDispatchTable::BlockInfo &bi = table.blocks.emplace_back();
            bi.bb = bb.get();
            bi.fnId = fn->index();
            bi.firstInstr = static_cast<std::uint32_t>(table.instrs.size());
            bi.size = static_cast<std::uint32_t>(bb->instructions().size());
            for (const auto &instr : bb->instructions()) {
                table.instrs.push_back(instr.get());
                table.callCost.push_back(
                    instr->opcode() == ir::Opcode::CallExt
                        ? instr->externalCallee()->cost()
                        : 0);
            }
        }
    }
    return table;
}

} // namespace lp::trace
