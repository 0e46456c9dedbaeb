/*
 * Compiled cache cascade for replay="compiled" (see repro.memory.compiled).
 *
 * Every cache is a flat array of sets; each set is `ways` line slots in
 * LRU order (slot 0 is LRU, slot fill-1 is MRU) with one dirty byte per
 * slot and a fill count per set.  The transitions are exactly those of
 * the scalar oracle's insertion-ordered dict (repro.memory.cache.Cache):
 * a hit moves the line to MRU and ORs in the write flag; a miss on a
 * full set evicts slot 0 and appends the new line at MRU.
 *
 * Preconditions (checked by the Python caller): every line is
 * non-negative, and no set holds more than `ways` lines.
 */
#include <stddef.h>
#include <stdint.h>

typedef struct {
    int64_t *lines;    /* num_sets * ways line slots */
    uint8_t *dirty;    /* one dirty byte per slot */
    int32_t *fill;     /* occupied slots per set (a prefix of the set) */
    int64_t *ctr;      /* hits, misses, writebacks, fills */
    int64_t num_sets;
    int64_t ways;
} cache_t;

enum { HITS, MISSES, WRITEBACKS, FILLS };

/* Trace op encoding, mirrored from repro.memory.hierarchy. */
enum { OP_DENSE = 0, OP_DENSE_BYPASS = 1, OP_PATH_MASK = 3, OP_WRITE = 4 };

/* Service levels, mirrored from repro.memory.hierarchy.ServiceLevel. */
enum { LV_L1 = 0, LV_VICTIM = 1, LV_L2 = 3, LV_LLC = 4, LV_DRAM = 5 };

/* Close the gap at slot i: slots i+1..n-1 move down by one.  Sets are
 * at most a few dozen slots, where a plain loop beats a memmove call. */
static void shift_down(int64_t *l, uint8_t *d, int32_t i, int32_t n)
{
    for (; i < n - 1; i++) {
        l[i] = l[i + 1];
        d[i] = d[i + 1];
    }
}

/* One access.  Returns 1 on a hit; *evicted is the dirty victim line
 * (to be written to the next level) or -1. */
int spade_access(cache_t *c, int64_t line, int write, int64_t *evicted)
{
    int64_t set = line % c->num_sets;
    int64_t *l = c->lines + set * c->ways;
    uint8_t *d = c->dirty + set * c->ways;
    int32_t n = c->fill[set];
    *evicted = -1;
    /* Search from MRU: re-references are mostly recent. */
    for (int32_t i = n - 1; i >= 0; i--) {
        if (l[i] == line) {
            uint8_t dd = d[i] | (write != 0);
            shift_down(l, d, i, n);
            l[n - 1] = line;
            d[n - 1] = dd;
            c->ctr[HITS]++;
            return 1;
        }
    }
    c->ctr[MISSES]++;
    c->ctr[FILLS]++;
    if (n >= c->ways) {
        if (d[0]) {
            *evicted = l[0];
            c->ctr[WRITEBACKS]++;
        }
        shift_down(l, d, 0, n);
        n--;
    }
    l[n] = line;
    d[n] = (write != 0);
    c->fill[set] = n + 1;
    return 0;
}

/* A dirty victim written into the next level; returns the DRAM
 * writebacks it caused at the end of the chain (0 or 1). */
static int spill(cache_t *to, cache_t *then, int64_t line)
{
    int64_t ev;
    spade_access(to, line, 1, &ev);
    if (ev < 0)
        return 0;
    if (then == NULL)
        return 1;
    return spill(then, NULL, ev);
}

/* L1 -> L2 -> LLC -> DRAM for one access, in MemorySystem.dense_access
 * order: the dirty L1 victim spills down first, then the L2 fill, then
 * the LLC fill.  Sets *level; returns the DRAM writebacks (0..3). */
static int dense(cache_t *l1, cache_t *l2, cache_t *llc,
                 int64_t line, int write, uint8_t *level)
{
    int64_t ev;
    int wb = 0;
    int hit = spade_access(l1, line, write, &ev);
    if (ev >= 0)
        wb += spill(l2, llc, ev);
    if (hit) {
        *level = LV_L1;
        return wb;
    }
    hit = spade_access(l2, line, 0, &ev);
    if (ev >= 0)
        wb += spill(llc, NULL, ev);
    if (hit) {
        *level = LV_L2;
        return wb;
    }
    hit = spade_access(llc, line, 0, &ev);
    if (ev >= 0)
        wb++;
    *level = hit ? LV_LLC : LV_DRAM;
    return wb;
}

/* Replay the dense-cached and dense-bypass accesses of one PE's trace.
 * Stream-path entries are skipped (levels[i] and dram[i] untouched).
 * dram[i] receives the DRAM lines access i moved (reads + writebacks);
 * the return value is the total DRAM reads. */
int64_t spade_replay(cache_t *l1, cache_t *l2, cache_t *llc,
                     cache_t *victim, const int64_t *lines,
                     const int64_t *ops, int64_t n,
                     uint8_t *levels, uint8_t *dram)
{
    int64_t reads = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t op = ops[i];
        int write = (op & OP_WRITE) != 0;
        int64_t path = op & OP_PATH_MASK;
        if (path == OP_DENSE) {
            int wb = dense(l1, l2, llc, lines[i], write, &levels[i]);
            int rd = levels[i] == LV_DRAM;
            dram[i] = (uint8_t)(wb + rd);
            reads += rd;
        } else if (path == OP_DENSE_BYPASS) {
            int64_t ev;
            int hit = spade_access(victim, lines[i], write, &ev);
            int rd = !hit && !write;
            levels[i] = hit ? LV_VICTIM : LV_DRAM;
            dram[i] = (uint8_t)((ev >= 0) + rd);
            reads += rd;
        }
    }
    return reads;
}
