#include "obs/metrics.hpp"

#include <algorithm>

namespace lp::obs {

namespace detail {
std::atomic<bool> g_metricsEnabled{false};
}

void
setMetricsEnabled(bool on)
{
    detail::g_metricsEnabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds))
{
    std::sort(bounds_.begin(), bounds_.end());
    bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                  bounds_.end());
    const std::size_t buckets = bounds_.size() + 1;
    for (Shard &s : shards_) {
        s.counts =
            std::make_unique<std::atomic<std::uint64_t>[]>(buckets);
        for (std::size_t i = 0; i < buckets; ++i)
            s.counts[i].store(0, std::memory_order_relaxed);
    }
}

void
Histogram::record(std::uint64_t sample)
{
    std::size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i])
        ++i;
    Shard &s = shards_[prof::detail::shardLane() & (kShards - 1)];
    s.counts[i].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(sample, std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(bounds_.size() + 1, 0);
    for (const Shard &s : shards_)
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] += s.counts[i].load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (const Shard &s : shards_)
        total += s.count.load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
Histogram::sum() const
{
    std::uint64_t total = 0;
    for (const Shard &s : shards_)
        total += s.sum.load(std::memory_order_relaxed);
    return total;
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
}

void
Histogram::reset()
{
    const std::size_t buckets = bounds_.size() + 1;
    for (Shard &s : shards_) {
        for (std::size_t i = 0; i < buckets; ++i)
            s.counts[i].store(0, std::memory_order_relaxed);
        s.count.store(0, std::memory_order_relaxed);
        s.sum.store(0, std::memory_order_relaxed);
    }
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
    Shard &sh = shardFor(name);
    std::lock_guard<prof::TimedMutex> lock(sh.mu);
    auto &slot = sh.counters[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    Shard &sh = shardFor(name);
    std::lock_guard<prof::TimedMutex> lock(sh.mu);
    auto &slot = sh.gauges[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<std::uint64_t> bounds)
{
    Shard &sh = shardFor(name);
    std::lock_guard<prof::TimedMutex> lock(sh.mu);
    auto &slot = sh.histograms[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

void
Registry::resetAll()
{
    for (Shard &sh : shards_) {
        std::lock_guard<prof::TimedMutex> lock(sh.mu);
        for (auto &[name, c] : sh.counters)
            c->reset();
        for (auto &[name, g] : sh.gauges)
            g->reset();
        for (auto &[name, h] : sh.histograms)
            h->reset();
    }
}

Json
Registry::toJson() const
{
    // Merge the shards back into name order (std::map) so the snapshot
    // is byte-identical to the unsharded registry's output.
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, const Histogram *> histograms;
    for (const Shard &sh : shards_) {
        std::lock_guard<prof::TimedMutex> lock(sh.mu);
        for (const auto &[name, c] : sh.counters)
            counters.emplace(name, c->value());
        for (const auto &[name, g] : sh.gauges)
            gauges.emplace(name, g->value());
        for (const auto &[name, h] : sh.histograms)
            histograms.emplace(name, h.get());
    }

    Json countersJson = Json::object();
    for (const auto &[name, v] : counters)
        countersJson.set(name, v);

    Json gaugesJson = Json::object();
    for (const auto &[name, v] : gauges)
        gaugesJson.set(name, v);

    Json histogramsJson = Json::object();
    for (const auto &[name, h] : histograms) {
        Json bounds = Json::array();
        for (std::uint64_t b : h->bounds())
            bounds.push(b);
        Json counts = Json::array();
        for (std::uint64_t c : h->bucketCounts())
            counts.push(c);
        Json one = Json::object();
        one.set("bounds", std::move(bounds));
        one.set("counts", std::move(counts));
        one.set("count", h->count());
        one.set("sum", h->sum());
        one.set("mean", h->mean());
        histogramsJson.set(name, std::move(one));
    }

    Json out = Json::object();
    out.set("counters", std::move(countersJson));
    out.set("gauges", std::move(gaugesJson));
    out.set("histograms", std::move(histogramsJson));
    return out;
}

} // namespace lp::obs
