#include "core/configs.hpp"

namespace lp::core {

using rt::ExecModel;
using rt::LPConfig;

namespace {

NamedConfig
make(const char *flags, ExecModel model)
{
    LPConfig cfg = LPConfig::parse(flags, model);
    return {cfg.str(), cfg};
}

} // namespace

const std::vector<NamedConfig> &
paperConfigs()
{
    // Exactly the rows of Figures 2 and 3, bottom to top.
    static const std::vector<NamedConfig> configs = {
        // DOALL
        make("reduc0-dep0-fn0", ExecModel::DoAll),
        make("reduc1-dep0-fn0", ExecModel::DoAll),
        // Partial-DOALL
        make("reduc0-dep0-fn0", ExecModel::PartialDoAll),
        make("reduc0-dep2-fn0", ExecModel::PartialDoAll),
        make("reduc1-dep2-fn0", ExecModel::PartialDoAll),
        make("reduc0-dep0-fn2", ExecModel::PartialDoAll),
        make("reduc0-dep2-fn2", ExecModel::PartialDoAll),
        make("reduc1-dep2-fn2", ExecModel::PartialDoAll),
        make("reduc0-dep3-fn2", ExecModel::PartialDoAll),
        make("reduc0-dep3-fn3", ExecModel::PartialDoAll),
        // HELIX-style
        make("reduc0-dep0-fn2", ExecModel::Helix),
        make("reduc1-dep0-fn2", ExecModel::Helix),
        make("reduc0-dep1-fn2", ExecModel::Helix),
        make("reduc1-dep1-fn2", ExecModel::Helix),
    };
    return configs;
}

std::vector<LPConfig>
tableTwoConfigs()
{
    std::vector<LPConfig> grid;
    for (ExecModel m :
         {ExecModel::DoAll, ExecModel::PartialDoAll, ExecModel::Helix})
        for (int reduc = 0; reduc <= 1; ++reduc)
            for (int dep = 0; dep <= 3; ++dep)
                for (int fn = 0; fn <= 3; ++fn) {
                    if (m == ExecModel::DoAll && dep != 0)
                        continue;
                    LPConfig c;
                    c.model = m;
                    c.reduc = reduc;
                    c.dep = dep;
                    c.fn = fn;
                    grid.push_back(c);
                }
    return grid;
}

LPConfig
bestPdoall()
{
    return LPConfig::parse("reduc1-dep2-fn2", ExecModel::PartialDoAll);
}

LPConfig
bestHelix()
{
    return LPConfig::parse("reduc1-dep1-fn2", ExecModel::Helix);
}

const std::vector<NamedConfig> &
coverageConfigs()
{
    static const std::vector<NamedConfig> configs = {
        make("reduc0-dep0-fn2", ExecModel::PartialDoAll),
        make("reduc0-dep0-fn2", ExecModel::Helix),
        make("reduc0-dep1-fn2", ExecModel::Helix),
    };
    return configs;
}

} // namespace lp::core
