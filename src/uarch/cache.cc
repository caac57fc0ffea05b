#include "uarch/cache.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace wisc {

Cache::Cache(const CacheParams &params, const std::string &name,
             StatSet &stats)
    : params_(params)
{
    wisc_assert(params_.lineBytes > 0 && params_.ways > 0, "bad cache");
    numSets_ = params_.sizeBytes / (params_.lineBytes * params_.ways);
    wisc_assert(numSets_ > 0, "cache too small for its geometry");
    lines_.assign(numSets_ * params_.ways, Line{});
    hits_ = &stats.counter(name + ".hits", "cache hits");
    misses_ = &stats.counter(name + ".misses", "cache misses");
}

bool
Cache::access(Addr addr)
{
    Addr line = lineAddr(addr);
    std::size_t set = setOf(line);
    Line *base = &lines_[set * params_.ways];
    ++useClock_;

    Line *victim = base;
    for (std::uint32_t w = 0; w < params_.ways; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == line) {
            l.lastUse = useClock_;
            ++*hits_;
            return true;
        }
        if (!l.valid || l.lastUse < victim->lastUse ||
            (victim->valid && !l.valid))
            victim = &l;
    }
    victim->valid = true;
    victim->tag = line;
    victim->lastUse = useClock_;
    ++*misses_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    Addr line = lineAddr(addr);
    std::size_t set = setOf(line);
    const Line *base = &lines_[set * params_.ways];
    for (std::uint32_t w = 0; w < params_.ways; ++w)
        if (base[w].valid && base[w].tag == line)
            return true;
    return false;
}

void
Cache::io(StateIO &io)
{
    io(useClock_);
    io.table(lines_);
}

MemorySystem::MemorySystem(const SimParams &params, StatSet &stats)
    : params_(params),
      il1_(params.il1, "mem.il1", stats),
      dl1_(params.dl1, "mem.dl1", stats),
      l2_(params.l2, "mem.l2", stats)
{
}

unsigned
MemorySystem::fetchAccess(Addr addr)
{
    if (il1_.access(addr))
        return il1_.hitLatency();
    if (l2_.access(addr))
        return il1_.hitLatency() + l2_.hitLatency();
    return il1_.hitLatency() + l2_.hitLatency() + params_.memLatency;
}

unsigned
MemorySystem::loadAccess(Addr addr, Cycle now)
{
    Addr line = addr / params_.dl1.lineBytes;

    // A line whose fill is still outstanding costs the remaining time.
    auto it = fillsInFlight_.find(line);
    if (it != fillsInFlight_.end()) {
        if (it->second > now) {
            dl1_.access(addr); // keep LRU/tag state coherent
            return static_cast<unsigned>(it->second - now) +
                   dl1_.hitLatency();
        }
        fillsInFlight_.erase(it);
    }

    unsigned lat;
    if (dl1_.access(addr)) {
        lat = dl1_.hitLatency();
    } else if (l2_.access(addr)) {
        lat = dl1_.hitLatency() + l2_.hitLatency();
    } else {
        lat = dl1_.hitLatency() + l2_.hitLatency() + params_.memLatency;
    }
    if (lat > dl1_.hitLatency()) {
        fillsInFlight_[line] = now + lat;
        // Bound the map: drop expired fills opportunistically.
        if (fillsInFlight_.size() > 4096) {
            for (auto fit = fillsInFlight_.begin();
                 fit != fillsInFlight_.end();) {
                if (fit->second <= now)
                    fit = fillsInFlight_.erase(fit);
                else
                    ++fit;
            }
        }
    }
    return lat;
}

void
MemorySystem::tagAccess(Addr addr)
{
    if (!dl1_.access(addr))
        l2_.access(addr);
}

bool
MemorySystem::loadWouldHitL1(Addr addr) const
{
    return dl1_.probe(addr);
}

void
MemorySystem::warmText(Addr base, Addr bytes)
{
    for (Addr a = base; a < base + bytes; a += il1_.lineBytes()) {
        il1_.access(a);
        l2_.access(a);
    }
}

void
MemorySystem::io(StateIO &io)
{
    il1_.io(io);
    dl1_.io(io);
    l2_.io(io);
    io.map(fillsInFlight_, [&](Addr &line, Cycle &ready) { io(line, ready); });
}

unsigned
MemorySystem::l1dHitLatency() const
{
    return dl1_.hitLatency();
}

} // namespace wisc
