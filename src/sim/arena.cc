#include "sim/arena.hh"

#include <atomic>
#include <new>

#include "sim/logging.hh"

namespace howsim::sim
{

namespace
{

thread_local Arena *tlsArena = nullptr;

/**
 * Every block (chunk-backed, oversize, and global-fallback alike)
 * is preceded by this 16-byte header so release() is self-routing.
 * owner == nullptr means ::operator new with no arena involved;
 * cls == 0 with an owner means an oversize block that only counts
 * toward the arena's live blocks.
 */
struct Header
{
    void *owner;       //!< Arena::Control*, or null for plain ::new
    std::uint64_t cls; //!< size-class index; 0 = oversize
};

static_assert(sizeof(Header) == 16);
static_assert(alignof(std::max_align_t) <= 16,
              "payloads are aligned by the 16-byte header");

} // namespace

struct Arena::Control
{
    static constexpr std::size_t nClasses
        = maxBlockBytes / classBytes + 1;

    /**
     * The handle's share of refs. Remote releases count down from
     * it, so refs cannot reach zero while the handle lives.
     */
    static constexpr std::uint64_t handleBias = std::uint64_t{1} << 62;

    struct FreeNode
    {
        FreeNode *next;
    };

    struct Chunk
    {
        Chunk *next;
        std::size_t capacity; //!< usable bytes after this header
    };

    // Owner-thread state: plain loads and stores only.
    FreeNode *freelist[nClasses] = {};
    /** Blocks handed out minus blocks released on the owner path. */
    std::uint64_t live = 0;

    Chunk *chunks = nullptr; //!< newest first
    std::byte *bump = nullptr;
    std::byte *bumpEnd = nullptr;
    Chunk *reuse = nullptr; //!< next recycled chunk after reset()
    std::size_t nextChunkBytes = firstChunkBytes;

    std::size_t nchunks = 0;
    std::size_t bytesReserved = 0;
    std::uint64_t allocs = 0;
    std::uint64_t freelistHits = 0;
    std::uint64_t oversize = 0;

    // Shared with releasing threads.
    /**
     * Blocks released off the owner thread, every size class on one
     * Treiber stack: any thread pushes, the owner takes the whole
     * stack with one exchange (drainRemote), so there is no ABA.
     */
    std::atomic<FreeNode *> remote{nullptr};

    /**
     * handleBias minus remote releases while the handle lives; after
     * dropHandle(), the number of blocks still out. The control block
     * (and its chunks) dies when this reaches zero, which may be a
     * block release long after the handle is gone.
     */
    std::atomic<std::uint64_t> refs{handleBias};

    /** Blocks not yet released, by either path. Owner thread only. */
    std::uint64_t
    outstanding() const noexcept
    {
        return live - (handleBias - refs.load(std::memory_order_acquire));
    }

    /** Move every remotely released block onto its class free list. */
    void
    drainRemote() noexcept
    {
        FreeNode *node = remote.exchange(nullptr, std::memory_order_acquire);
        while (node) {
            FreeNode *next = node->next;
            // FreeNode overlays Header::owner; the class survives.
            std::uint64_t cls = reinterpret_cast<Header *>(node)->cls;
            node->next = freelist[cls];
            freelist[cls] = node;
            node = next;
        }
    }

    /** A release off the owner path, or after the handle is gone. */
    static void
    unref(Control *c) noexcept
    {
        if (c->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            destroy(c);
    }

    /**
     * The handle lets go: trade its bias for the owner's live count,
     * leaving refs equal to the blocks still out (modular arithmetic:
     * remote releases may have taken refs below the bias by more than
     * live).
     */
    static void
    dropHandle(Control *c) noexcept
    {
        std::uint64_t delta = c->live - handleBias;
        if (c->refs.fetch_add(delta, std::memory_order_acq_rel) + delta
            == 0)
            destroy(c);
    }

    static void
    destroy(Control *c) noexcept
    {
        Chunk *chunk = c->chunks;
        while (chunk) {
            Chunk *next = chunk->next;
            ::operator delete(chunk);
            chunk = next;
        }
        delete c;
    }
};

Arena::Arena() : ctl(new Control) {}

Arena::~Arena()
{
    if (ctl)
        Control::dropHandle(ctl);
}

Arena::Arena(Arena &&other) noexcept
    : ctl(other.ctl)
{
    other.ctl = nullptr;
}

Arena &
Arena::operator=(Arena &&other) noexcept
{
    if (this != &other) {
        if (ctl)
            Control::dropHandle(ctl);
        ctl = other.ctl;
        other.ctl = nullptr;
    }
    return *this;
}

void *
Arena::allocate(std::size_t bytes)
{
    Control &c = *ctl;
    std::size_t need = bytes + sizeof(Header);
    ++c.live;
    if (need > maxBlockBytes) {
        // Oversize: plain ::new, but tagged with the control block so
        // the arena's live count still covers it.
        ++c.oversize;
        auto *h = static_cast<Header *>(::operator new(need));
        h->owner = &c;
        h->cls = 0;
        return h + 1;
    }
    std::size_t cls = (need + classBytes - 1) / classBytes;
    ++c.allocs;

    Control::FreeNode *head = c.freelist[cls];
    if (!head && c.remote.load(std::memory_order_relaxed)) {
        c.drainRemote();
        head = c.freelist[cls];
    }
    if (head) {
        c.freelist[cls] = head->next;
        ++c.freelistHits;
        auto *h = reinterpret_cast<Header *>(head);
        h->owner = &c;
        h->cls = cls;
        return h + 1;
    }

    std::size_t sz = cls * classBytes;
    while (static_cast<std::size_t>(c.bumpEnd - c.bump) < sz) {
        // A recycled chunk smaller than the request is skipped.
        if (c.reuse) {
            // reset() put the existing chunks back in play.
            c.bump = reinterpret_cast<std::byte *>(c.reuse + 1);
            c.bumpEnd = c.bump + c.reuse->capacity;
            c.reuse = c.reuse->next;
        } else {
            std::size_t chunkBytes = c.nextChunkBytes;
            if (c.nextChunkBytes < maxChunkBytes)
                c.nextChunkBytes *= 2;
            auto *chunk = static_cast<Control::Chunk *>(
                ::operator new(sizeof(Control::Chunk) + chunkBytes));
            chunk->capacity = chunkBytes;
            chunk->next = c.chunks;
            c.chunks = chunk;
            ++c.nchunks;
            c.bytesReserved += chunkBytes;
            c.bump = reinterpret_cast<std::byte *>(chunk + 1);
            c.bumpEnd = c.bump + chunkBytes;
        }
    }
    auto *h = reinterpret_cast<Header *>(c.bump);
    c.bump += sz;
    h->owner = &c;
    h->cls = cls;
    return h + 1;
}

void
Arena::release(void *p) noexcept
{
    auto *h = static_cast<Header *>(p) - 1;
    auto *c = static_cast<Control *>(h->owner);
    if (!c) {
        ::operator delete(h);
        return;
    }
    Arena *installed = tlsArena;
    bool owner = installed && installed->ctl == c;
    if (h->cls == 0) {
        ::operator delete(h);
    } else if (owner) {
        auto *node = reinterpret_cast<Control::FreeNode *>(h);
        node->next = c->freelist[h->cls];
        c->freelist[h->cls] = node;
    } else {
        auto *node = reinterpret_cast<Control::FreeNode *>(h);
        node->next = c->remote.load(std::memory_order_relaxed);
        while (!c->remote.compare_exchange_weak(
            node->next, node, std::memory_order_release,
            std::memory_order_relaxed)) {
        }
    }
    if (owner)
        --c->live;
    else
        Control::unref(c);
}

void *
Arena::allocateGlobal(std::size_t bytes)
{
    if (Arena *a = tlsArena)
        return a->allocate(bytes);
    auto *h = static_cast<Header *>(
        ::operator new(bytes + sizeof(Header)));
    h->owner = nullptr;
    h->cls = 0;
    return h + 1;
}

void
Arena::reset()
{
    Control &c = *ctl;
    if (std::uint64_t out = c.outstanding()) {
        panic("Arena::reset with %llu live allocation(s)",
              static_cast<unsigned long long>(out));
    }
    // No block is out, so no other thread can reach the shared
    // fields until the next allocate().
    c.live = 0;
    c.refs.store(Control::handleBias, std::memory_order_relaxed);
    c.remote.store(nullptr, std::memory_order_relaxed);
    for (auto &list : c.freelist)
        list = nullptr;
    c.reuse = c.chunks;
    c.bump = c.bumpEnd = nullptr;
}

Arena *
Arena::current()
{
    return tlsArena;
}

Arena::Stats
Arena::stats() const
{
    const Control &c = *ctl;
    Stats s;
    s.chunks = c.nchunks;
    s.bytesReserved = c.bytesReserved;
    s.allocs = c.allocs;
    s.freelistHits = c.freelistHits;
    s.oversize = c.oversize;
    s.live = c.outstanding();
    return s;
}

ArenaScope::ArenaScope(Arena *arena) : prev(tlsArena)
{
    tlsArena = arena;
}

ArenaScope::~ArenaScope()
{
    tlsArena = prev;
}

} // namespace howsim::sim
