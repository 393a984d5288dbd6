#include "prof/phase.hpp"

#include <chrono>

#include "prof/collector.hpp"

namespace lp::prof {

namespace {

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Open phase of this thread; null means "at the root". */
thread_local PhaseNode *t_cur = nullptr;

} // namespace

obs::Json
PhaseNode::toJson() const
{
    obs::Json out = obs::Json::object();
    out.set("name", name);
    out.set("count", count.load(std::memory_order_relaxed));
    out.set("wall_ns", wallNanos.load(std::memory_order_relaxed));
    out.set("instructions",
            instructions.load(std::memory_order_relaxed));
    obs::Json kids = obs::Json::array();
    for (const auto &c : children)
        kids.push(c->toJson());
    out.set("children", std::move(kids));
    return out;
}

PhaseTree &
PhaseTree::instance()
{
    static PhaseTree t;
    return t;
}

void
PhaseTree::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    root_.children.clear();
    root_.count.store(0, std::memory_order_relaxed);
    root_.wallNanos.store(0, std::memory_order_relaxed);
    root_.instructions.store(0, std::memory_order_relaxed);
    t_cur = nullptr;
}

obs::Json
PhaseTree::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    obs::Json out = obs::Json::array();
    for (const auto &c : root_.children)
        out.push(c->toJson());
    return out;
}

PhaseNode *
PhaseTree::current()
{
    return t_cur ? t_cur : &root_;
}

void
PhaseTree::setCurrent(PhaseNode *node)
{
    t_cur = node == &root_ ? nullptr : node;
}

PhaseNode *
PhaseTree::childOf(PhaseNode *parent, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &c : parent->children)
        if (c->name == name)
            return c.get();
    parent->children.push_back(std::make_unique<PhaseNode>());
    parent->children.back()->name = name;
    return parent->children.back().get();
}

ScopedPhase::ScopedPhase(const std::string &name)
{
    PhaseTree &tree = PhaseTree::instance();
    parent_ = tree.current();
    node_ = tree.childOf(parent_, name);
    tree.setCurrent(node_);
    startNanos_ = nowNanos();
}

ScopedPhase::~ScopedPhase()
{
    std::uint64_t elapsed = nowNanos() - startNanos_;
    node_->count.fetch_add(1, std::memory_order_relaxed);
    node_->wallNanos.fetch_add(elapsed, std::memory_order_relaxed);
    node_->instructions.fetch_add(instructions_,
                                  std::memory_order_relaxed);
    PhaseTree::instance().setCurrent(parent_);

    if (profilingOn())
        Collector::instance().recordPhase(node_->name, elapsed,
                                          instructions_);
}

} // namespace lp::prof
