#include "obs/trace.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/json.hh"

namespace memfwd::obs
{

namespace
{

constexpr const char *kind_names[] = {
    "reference", "chain_walk", "relocation", "trap", "cache_miss",
    "rollback",  "ftc",       "plan",       "temporal_violation",
};

constexpr const char *access_names[] = {"load", "store", "prefetch"};

} // namespace

const char *
eventKindName(EventKind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    return i < std::size(kind_names) ? kind_names[i] : "?";
}

bool
eventKindFromName(const std::string &name, EventKind &out)
{
    for (std::size_t i = 0; i < std::size(kind_names); ++i) {
        if (name == kind_names[i]) {
            out = static_cast<EventKind>(i);
            return true;
        }
    }
    return false;
}

const char *
accessTypeName(AccessType type)
{
    const auto i = static_cast<std::size_t>(type);
    return i < std::size(access_names) ? access_names[i] : "?";
}

bool
accessTypeFromName(const std::string &name, AccessType &out)
{
    for (std::size_t i = 0; i < std::size(access_names); ++i) {
        if (name == access_names[i]) {
            out = static_cast<AccessType>(i);
            return true;
        }
    }
    return false;
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity ? capacity : 1)
{
    buf_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void
RingBufferSink::emit(const TraceEvent &event)
{
    if (buf_.size() < capacity_) {
        buf_.push_back(event);
    } else {
        buf_[next_] = event;
        next_ = (next_ + 1) % capacity_;
    }
    ++total_;
}

std::size_t
RingBufferSink::size() const
{
    return buf_.size();
}

std::uint64_t
RingBufferSink::dropped() const
{
    return total_ - buf_.size();
}

std::vector<TraceEvent>
RingBufferSink::events() const
{
    std::vector<TraceEvent> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i)
        out.push_back(buf_[(next_ + i) % buf_.size()]);
    return out;
}

void
RingBufferSink::clear()
{
    buf_.clear();
    next_ = 0;
    total_ = 0;
}

void
Tracer::addSink(TraceSink *sink)
{
    if (sink && std::find(sinks_.begin(), sinks_.end(), sink) ==
                    sinks_.end())
        sinks_.push_back(sink);
}

void
Tracer::removeSink(TraceSink *sink)
{
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                 sinks_.end());
}

// ----- exporters -----------------------------------------------------

void
exportJsonl(const std::vector<TraceEvent> &events, std::ostream &os)
{
    for (const TraceEvent &e : events) {
        Json j = Json::object();
        j["kind"] = Json::string(eventKindName(e.kind));
        j["access"] = Json::string(accessTypeName(e.access));
        j["ts"] = Json::number(e.ts);
        j["addr"] = Json::number(e.addr);
        j["addr2"] = Json::number(e.addr2);
        j["arg"] = Json::number(e.arg);
        j["size"] = Json::number(e.size);
        j.write(os);
        os << '\n';
    }
}

std::vector<TraceEvent>
parseJsonl(std::istream &is)
{
    std::vector<TraceEvent> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        const Json j = Json::parse(line);
        TraceEvent e;
        const Json *kind = j.find("kind");
        const Json *access = j.find("access");
        if (!kind || !eventKindFromName(kind->asString(), e.kind))
            throw std::invalid_argument("trace record: bad kind");
        if (!access || !accessTypeFromName(access->asString(), e.access))
            throw std::invalid_argument("trace record: bad access");
        auto u64 = [&](const char *name) -> std::uint64_t {
            const Json *f = j.find(name);
            if (!f)
                throw std::invalid_argument(
                    std::string("trace record: missing ") + name);
            return f->asU64();
        };
        e.ts = u64("ts");
        e.addr = u64("addr");
        e.addr2 = u64("addr2");
        e.arg = u64("arg");
        e.size = static_cast<std::uint32_t>(u64("size"));
        out.push_back(e);
    }
    return out;
}

void
exportChromeTrace(const std::vector<TraceEvent> &events, std::ostream &os)
{
    std::vector<TraceEvent> sorted = events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });

    Json doc = Json::object();
    Json arr = Json::array();

    // One named track (tid) per event kind.
    for (std::size_t k = 0; k < std::size(kind_names); ++k) {
        Json meta = Json::object();
        meta["name"] = Json::string("thread_name");
        meta["ph"] = Json::string("M");
        meta["pid"] = Json::number(0);
        meta["tid"] = Json::number(k);
        Json args = Json::object();
        args["name"] = Json::string(kind_names[k]);
        meta["args"] = std::move(args);
        arr.push(std::move(meta));
    }

    for (const TraceEvent &e : sorted) {
        Json ev = Json::object();
        ev["name"] = Json::string(eventKindName(e.kind));
        ev["ph"] = Json::string("X");
        ev["ts"] = Json::number(e.ts);
        // Chain walks and traps have a natural extent (hops); give the
        // rest a 1-cycle sliver so every event is visible as a slice.
        const std::uint64_t dur =
            (e.kind == EventKind::chain_walk && e.arg) ? e.arg : 1;
        ev["dur"] = Json::number(dur);
        ev["pid"] = Json::number(0);
        ev["tid"] = Json::number(static_cast<std::uint64_t>(e.kind));
        Json args = Json::object();
        args["access"] = Json::string(accessTypeName(e.access));
        args["addr"] = Json::number(e.addr);
        args["addr2"] = Json::number(e.addr2);
        args["arg"] = Json::number(e.arg);
        args["size"] = Json::number(e.size);
        ev["args"] = std::move(args);
        arr.push(std::move(ev));
    }

    doc["traceEvents"] = std::move(arr);
    doc["displayTimeUnit"] = Json::string("ms");
    doc.write(os);
    os << '\n';
}

} // namespace memfwd::obs
