#include "obs/metrics.hpp"

#include <mutex>

namespace lp::obs {

namespace detail {
std::atomic<bool> g_metricsEnabled{false};
}

void
setMetricsEnabled(bool on)
{
    detail::g_metricsEnabled.store(on, std::memory_order_relaxed);
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

void
Registry::resetAll()
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
}

Json
Registry::toJson() const
{
    Json counters = Json::object();
    {
        std::lock_guard<prof::TimedMutex> lock(mu_);
        for (const auto &[name, c] : counters_)
            counters.set(name, c->value());
    }
    Json out = Json::object();
    out.set("counters", std::move(counters));
    return out;
}

} // namespace lp::obs
