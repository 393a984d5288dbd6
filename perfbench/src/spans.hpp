/**
 * @file
 * In-memory span recorder for the traced benchmark pass.
 *
 * The traced pass wraps every library call it makes in a Span; spans
 * nest by scope, are kept in memory while the pass runs, and are only
 * turned into a Chrome trace and per-name self times after it ends, so
 * recording costs two clock reads and one vector append per call.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

class SpanRecorder
{
  public:
    struct Record
    {
        std::string name;
        std::string detail; ///< e.g. the program a span worked on
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;          ///< index into records(), -1 = root
        std::int64_t childNs = 0; ///< time covered by direct children
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Span
    {
      public:
        Span(SpanRecorder &rec, std::string name, std::string detail = {})
            : rec_(rec), idx_(rec.open(std::move(name), std::move(detail)))
        {
        }
        ~Span() { rec_.close(idx_); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        int index() const { return idx_; }

      private:
        SpanRecorder &rec_;
        int idx_;
    };

    const std::vector<Record> &records() const { return records_; }

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Wall seconds of record @p i. */
    double
    seconds(int i) const
    {
        return static_cast<double>(records_[i].endNs -
                                   records_[i].startNs) *
               1e-9;
    }

    /** Self time of record @p i: its duration minus its children's. */
    double
    selfSeconds(int i) const
    {
        const Record &r = records_[i];
        return static_cast<double>(r.endNs - r.startNs - r.childNs) * 1e-9;
    }

    /** Sum of self seconds of every span named @p name. */
    double
    selfTotal(const std::string &name) const
    {
        double s = 0;
        for (int i = 0; i < static_cast<int>(records_.size()); ++i)
            if (records_[i].name == name)
                s += selfSeconds(i);
        return s;
    }

    /** Largest single duration of a span named @p name. */
    double
    maxSeconds(const std::string &name) const
    {
        double m = 0;
        for (int i = 0; i < static_cast<int>(records_.size()); ++i)
            if (records_[i].name == name && seconds(i) > m)
                m = seconds(i);
        return m;
    }

    /** Chrome trace-event document ("X" complete events, one thread). */
    lp::obs::Json
    chromeTrace() const
    {
        lp::obs::Json events = lp::obs::Json::array();
        const std::int64_t t0 =
            records_.empty() ? 0 : records_.front().startNs;
        for (const Record &r : records_) {
            lp::obs::Json e = lp::obs::Json::object();
            e.set("name", r.name);
            e.set("ph", "X");
            e.set("pid", 1);
            e.set("tid", 1);
            e.set("ts", static_cast<double>(r.startNs - t0) * 1e-3);
            e.set("dur", static_cast<double>(r.endNs - r.startNs) * 1e-3);
            if (!r.detail.empty()) {
                lp::obs::Json args = lp::obs::Json::object();
                args.set("detail", r.detail);
                e.set("args", std::move(args));
            }
            events.push(std::move(e));
        }
        lp::obs::Json doc = lp::obs::Json::object();
        doc.set("traceEvents", std::move(events));
        doc.set("displayTimeUnit", "ms");
        return doc;
    }

  private:
    int
    open(std::string name, std::string detail)
    {
        Record r;
        r.name = std::move(name);
        r.detail = std::move(detail);
        r.parent = open_.empty() ? -1 : open_.back();
        records_.push_back(std::move(r));
        const int idx = static_cast<int>(records_.size()) - 1;
        open_.push_back(idx);
        records_[idx].startNs = nowNs();
        return idx;
    }

    void
    close(int idx)
    {
        Record &r = records_[idx];
        r.endNs = nowNs();
        open_.pop_back();
        if (r.parent >= 0)
            records_[r.parent].childNs += r.endNs - r.startNs;
    }

    std::vector<Record> records_;
    std::vector<int> open_;
};

} // namespace perfbench
