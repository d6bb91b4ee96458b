/* Native kernels of netbrain: the walks of `netbrain.dynamics.run_discovery`,
 * the exact betweenness of `netbrain.graph.betweenness`, and five set-up
 * steps: the stub shuffle of `netbrain.generators.gen_cm`, the edge-list
 * parse of `netbrain.fileio.ingest_edge_list`, the CSR build of
 * `netbrain.graph.build_graph_reported`, the component labels of
 * `netbrain.graph` and the edge lines of `netbrain.fileio.write_edge_list`.
 *
 * The discovery kernel repeats self-avoiding walks from the brain over an
 * int32 CSR adjacency (`indptr`/`indices`) until the brain knows `stop_count`
 * nodes or `stall_limit` walks in a row have added nothing. It follows
 * `_Walker.walk` and `_Walker.discover` in `dynamics.py` move for move, and it
 * draws from a copy of CPython's MT19937 (Modules/_randommodule.c; Matsumoto &
 * Nishimura 1998) seeded from `random.Random.getstate()`. So curves, counters
 * and the generator's end state are bit-identical to the Python engine's.
 *
 * The betweenness kernel runs Brandes (2001) over the same CSR view for one
 * block of sources, in the operation order of `graph._betweenness_python`
 * and with its predecessor lists, so the backward pass visits only the arcs
 * that lie on shortest paths; it writes each source's scores as a row of its
 * own. Blocks may run in threads at once; adding the rows in source order
 * gives every value bit-identical to the Python loop's.
 *
 * The shuffle replays `random.Random.shuffle` on the same generator state.
 * The parse takes only plain ASCII edge lists and refuses anything else, which
 * the caller then reads with its Python line loop. The build, the labels and
 * the edge lines give the arrays and bytes of the numpy code they replace.
 *
 * Built on first use by `netbrain._native` with `cc -O2 -ffp-contract=off
 * -fPIC -shared`; the contraction flag keeps the compiler from fusing a
 * multiply and an add, which would round differently from Python. The
 * kernels keep no state between calls, so threads may run them at once on
 * separate buffers.
 */

#include <stdint.h>

/* ---- CPython's Mersenne Twister -------------------------------------- */

#define MT_N 624
#define MT_M 397
#define MT_MATRIX_A 0x9908b0dfU
#define MT_UPPER 0x80000000U
#define MT_LOWER 0x7fffffffU

/* `mt` holds the 624 state words and then the read position, as in the
 * second item of `random.Random.getstate()`. */
static uint32_t genrand_uint32(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, MT_MATRIX_A};
    uint32_t y;
    uint32_t i = mt[MT_N];

    if (i >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & MT_UPPER) | (mt[kk + 1] & MT_LOWER);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & MT_UPPER) | (mt[0] & MT_LOWER);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        i = 0;
    }
    y = mt[i];
    mt[MT_N] = i + 1;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* `random.Random.random()`: a double in [0, 1) from two 32-bit draws. */
static double genrand_res53(uint32_t *mt)
{
    uint32_t a = genrand_uint32(mt) >> 5;
    uint32_t b = genrand_uint32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* ---- the walks -------------------------------------------------------- */

enum { STANDARD = 0, EXTENDED = 1, LOOK_AHEAD = 2 };
enum { UNVISITED = 0, PRIMED = 1, BLOCKED = 2, CURRENT = 3 };

/* Slots of `ctr`, read and written back on every call. */
enum { KNOWN, STEPS, WALKS, MOVES, CAP_HITS, STALLED, CROSSED };

/* Record every threshold that `count` knowledge reaches at `steps`. */
static int64_t record(int64_t crossed, int64_t count, int64_t steps,
                      const int64_t *targets, int64_t ntargets, int64_t *crossed_steps)
{
    while (crossed < ntargets && count >= targets[crossed])
        crossed_steps[crossed++] = steps;
    return crossed;
}

/* Run walks until the brain knows `stop_count` nodes (returns 0) or
 * `stall_limit` walks in a row have made nothing known (returns 1).
 *
 * known, reported  per-node flags of the discovery, kept across calls
 * state            per-node walk view, all UNVISITED between walks
 * touched, elig    scratch of one int per node each
 * targets          knowledge counts of the thresholds, ascending
 * crossed_steps    cumulative steps at each crossed threshold (output)
 * mt               the generator state, advanced in place
 * ctr              the counters named above
 *
 * The loops over a neighbourhood take no branch on a node's state or
 * knowledge, which a walk through hubs would mispredict at every neighbour:
 * the eligibility scan writes each neighbour into `elig` and advances past
 * those it keeps, and a report or an arrival adds `!known[x]` to the count
 * and sets the flag. On the 8 extended cells of the `wos-extended`
 * benchmark this took the kernel from 37 to 21 ms (2-CPU Xeon). Branches
 * stay where the policy fixes the outcome or the outcome is rare: the dead
 * end, the first departure from a node, the `touched` push, a crossed
 * threshold and the cap. Every store stays in its buffer: the scan writes
 * `elig[ne]` only at ne < deg(cur) < n, and `touched` gets a node only when
 * it leaves UNVISITED, so at most n entries; an unconditional push of `nxt`
 * would write past the end on a look_ahead walk that has primed every node
 * (a star from its centre).
 *
 * Aligned so that code elsewhere in this file cannot shift its loops across
 * instruction-fetch boundaries: a 16-byte shift made extended discoveries
 * 12% slower once, and with the loops above it still costs 7% (the kernel
 * alone on those 8 cells, a pad function placed before it), while a 32-byte
 * shift measured level.
 */
__attribute__((aligned(64)))
int netbrain_discover(
    const int32_t *indptr, const int32_t *indices,
    int32_t brain, int32_t policy, int64_t cap, int64_t stop_count,
    const int64_t *targets, int64_t ntargets, int64_t *crossed_steps,
    uint8_t *known, uint8_t *reported, uint8_t *state,
    int32_t *touched, int32_t *elig,
    uint32_t *mt, int64_t *ctr, int64_t stall_limit)
{
    const int standard = policy == STANDARD;
    const int look_ahead = policy == LOOK_AHEAD;
    /* A neighbour is eligible below this state: look_ahead takes only the
     * UNVISITED, the others the PRIMED too. */
    const uint8_t eligible = look_ahead ? PRIMED : BLOCKED;
    int64_t count = ctr[KNOWN];
    int64_t base = ctr[STEPS];
    int64_t walks = ctr[WALKS];
    int64_t moves = ctr[MOVES];
    int64_t cap_hits = ctr[CAP_HITS];
    int64_t stalled = ctr[STALLED];
    int64_t crossed = ctr[CROSSED];
    int stall = 0;

    while (count < stop_count) {
        int32_t cur = brain;
        int32_t ntouched = 0;
        int64_t steps = standard ? 0 : indptr[brain + 1] - indptr[brain];
        int64_t before = count;

        walks++;
        state[brain] = CURRENT;
        touched[ntouched++] = brain;
        if (!known[brain]) {
            known[brain] = 1;
            count++;
        }
        crossed = record(crossed, count, base + steps, targets, ntargets, crossed_steps);
        while (count < stop_count) {
            const int32_t *nbrs = indices + indptr[cur];
            const int32_t *end = indices + indptr[cur + 1];
            const int32_t *w;
            int64_t ne = 0, i;
            int32_t nxt;

            /* Write every neighbour; advance past the eligible. */
            for (w = nbrs; w < end; w++) {
                elig[ne] = *w;
                ne += state[*w] < eligible;
            }
            if (ne == 0)
                break; /* dead end */
            /* Exactly one draw per move, as in the Python engine. */
            i = (int64_t)(genrand_res53(mt) * (double)ne);
            nxt = elig[i < ne ? i : ne - 1];
            moves++;
            state[cur] = BLOCKED;
            /* Departure reports the neighbourhood, which is all known after
             * the first departure from `cur`. */
            if (!standard && !reported[cur]) {
                reported[cur] = 1;
                for (w = nbrs; w < end; w++) {
                    count += !known[*w];
                    known[*w] = 1;
                }
            }
            /* A look_ahead departure primes the unvisited neighbours, which
             * are exactly `elig`. */
            if (look_ahead) {
                for (i = 0; i < ne; i++) {
                    state[elig[i]] = PRIMED;
                    touched[ntouched++] = elig[i];
                }
            }
            /* Always taken but under look_ahead, whose `nxt` is PRIMED. */
            if (state[nxt] == UNVISITED)
                touched[ntouched++] = nxt;
            state[nxt] = CURRENT;
            count += !known[nxt];
            known[nxt] = 1;
            steps += standard ? 1 : indptr[nxt + 1] - indptr[nxt];
            cur = nxt;
            crossed = record(crossed, count, base + steps, targets, ntargets, crossed_steps);
            /* The cap is checked after a move, and full coverage first. */
            if (count < stop_count && steps >= cap) {
                cap_hits++;
                break;
            }
        }
        while (ntouched > 0)
            state[touched[--ntouched]] = UNVISITED;
        base += steps;
        if (count > before) {
            stalled = 0;
        } else if (++stalled >= stall_limit) {
            stall = 1;
            break;
        }
    }
    ctr[KNOWN] = count;
    ctr[STEPS] = base;
    ctr[WALKS] = walks;
    ctr[MOVES] = moves;
    ctr[CAP_HITS] = cap_hits;
    ctr[STALLED] = stalled;
    ctr[CROSSED] = crossed;
    return stall;
}

/* ---- betweenness ------------------------------------------------------ */

/* Path counts above 2^53 are not exact as doubles, where Python's are. */
#define SIGMA_EXACT ((int64_t)1 << 53)

/* The per-source scores of the sources `s0` to `s1 - 1`: row `s - s0` of
 * `rows` (n doubles each) receives, for every node `w`, what source `s` adds
 * to the betweenness of `w` under `graph._betweenness_python`, with
 * unordered source-target pairs and path endpoints excluded. The source's
 * own entry and the nodes it does not reach get +0.0, which leaves a
 * non-negative sum's bits unchanged. The caller adds the rows into the
 * scores in ascending source order and halves them, so that every value is
 * bit-identical to the Python loop's whichever thread ran which block.
 * Returns 0, or 1 as soon as a path count exceeds 2^53; `rows` is then
 * incomplete.
 *
 * For each source it repeats `graph._betweenness_python` step for step: the
 * BFS order (kept in `order`, which is the queue and the stack), the path
 * counts as exact integers, the predecessor lists, and
 * `coeff = (1 + delta[w]) / sigma[w]` and `delta[v] += sigma[v] * coeff` in
 * stack-pop order. The forward pass writes each arc v -> w that lies on a
 * shortest path (`dist[w] == dist[v] + 1`) as `v` into w's part of `pred`,
 * which starts at `indptr[w]` and holds at most deg(w) entries; `npred[w]`
 * counts them. The backward pass then visits only those arcs. Each
 * `delta[v]` gets one addition per successor `w`, in the pop order of `w`,
 * so the order within a predecessor list does not matter.
 *
 * rows             output, (s1 - s0) * n doubles
 * order, dist      scratch of one int per node each
 * sigma            scratch of one int64 per node
 * pred             scratch of one int per arc (indptr[n] ints)
 * npred            scratch of one int per node
 */
int netbrain_betweenness(
    const int32_t *indptr, const int32_t *indices, int32_t n, int32_t s0, int32_t s1,
    double *rows, int32_t *order, int32_t *dist, int64_t *sigma, int32_t *pred, int32_t *npred)
{
    int32_t s, v;

    for (v = 0; v < n; v++) {
        dist[v] = -1;
        sigma[v] = 0;
        npred[v] = 0;
    }
    for (s = s0; s < s1; s++) {
        double *delta = rows + (int64_t)(s - s0) * n;
        int32_t head = 0, tail = 0, i;

        for (v = 0; v < n; v++)
            delta[v] = 0.0;
        dist[s] = 0;
        sigma[s] = 1;
        order[tail++] = s;
        while (head < tail) {
            const int32_t *w, *end;
            int32_t dv;

            v = order[head++];
            dv = dist[v];
            end = indices + indptr[v + 1];
            for (w = indices + indptr[v]; w < end; w++) {
                if (dist[*w] < 0) {
                    dist[*w] = dv + 1;
                    order[tail++] = *w;
                }
                if (dist[*w] == dv + 1) {
                    sigma[*w] += sigma[v]; /* both at most 2^53: no overflow */
                    if (sigma[*w] > SIGMA_EXACT)
                        return 1;
                    pred[indptr[*w] + npred[*w]++] = v;
                }
            }
        }
        /* order[0] is the source, which has no predecessors. */
        for (i = tail - 1; i > 0; i--) {
            const int32_t *u, *end;
            int32_t w = order[i];
            double coeff = (1.0 + delta[w]) / (double)sigma[w];

            end = pred + indptr[w] + npred[w];
            for (u = pred + indptr[w]; u < end; u++)
                delta[*u] += (double)sigma[*u] * coeff;
        }
        delta[s] = 0.0; /* the source scores nothing */
        for (i = 0; i < tail; i++) {
            v = order[i];
            dist[v] = -1;
            sigma[v] = 0;
            npred[v] = 0;
        }
    }
    return 0;
}

/* ---- set-up: the configuration model's shuffle ------------------------ */

/* `random.Random.shuffle(x)` on the `len` values of `x`, drawing from `mt`
 * exactly as CPython does: for i from len - 1 down to 1 it swaps x[i] with
 * x[j], j = `_randbelow(i + 1)`, which draws `getrandbits(k)` (the top k bits
 * of one 32-bit draw), k the bit length of i + 1, until the draw is below
 * i + 1. Requires len < 2^32, so that k is at most 32. */
int netbrain_shuffle(int64_t *x, int64_t len, uint32_t *mt)
{
    int64_t i;

    for (i = len - 1; i > 0; i--) {
        uint32_t bound = (uint32_t)(i + 1);
        int shift = __builtin_clz(bound); /* 32 - k */
        uint32_t j = genrand_uint32(mt) >> shift;
        int64_t t;

        while (j >= bound)
            j = genrand_uint32(mt) >> shift;
        t = x[i];
        x[i] = x[j];
        x[j] = t;
    }
    return 0;
}

/* ---- set-up: the edge-list parse -------------------------------------- */

/* Labels of at most 18 digits are below 10^18 < 2^63. */
#define LABEL_DIGITS 18

static int blank(uint8_t c)
{
    return c == ' ' || c == '\t';
}

static int digit(const uint8_t *p, const uint8_t *end)
{
    return p < end && *p >= '0' && *p <= '9';
}

/* Read the 1 to LABEL_DIGITS digits at `*p` (before `end`) into `*label`;
 * returns 0 when there are none or too many. */
static int read_label(const uint8_t **p, const uint8_t *end, int64_t *label)
{
    const uint8_t *start = *p;
    int64_t value = 0;

    while (digit(*p, end) && *p - start < LABEL_DIGITS)
        value = value * 10 + (*(*p)++ - '0');
    *label = value;
    return *p > start && !digit(*p, end);
}

/* Parse the `len` bytes of an edge list into pairs of labels, two per edge,
 * at most `cap` edges, and store the edge count in `*nedges`. Returns 0, or
 * 1 as soon as a line falls outside this grammar (the caller then parses
 * the file in Python, which gives the line's error or reads it its own way):
 *
 *   line    = ( blank* | blank* "#" ascii* | blank* label blank+ label blank* ) end
 *   blank   = " " | "\t"
 *   label   = 1 to 18 decimal digits
 *   end     = "\n" | "\r\n" | the end of the data
 *
 * where `ascii` is any byte below 0x80 except "\r" and "\n". So every
 * accepted file is ASCII, splits into the same lines under universal
 * newlines, and has labels that fit an int64.
 */
int netbrain_parse_edges(const uint8_t *buf, int64_t len, int64_t *labels, int64_t cap,
                         int64_t *nedges)
{
    const uint8_t *p = buf, *data_end = buf + len;
    int64_t count = 0;

    while (p < data_end) {
        const uint8_t *end = p, *next;

        while (end < data_end && *end != '\n')
            end++;
        next = end < data_end ? end + 1 : end;
        if (end < data_end && end > p && end[-1] == '\r')
            end--; /* "\r\n" */
        while (p < end && blank(*p))
            p++;
        if (p < end && *p == '#') {
            for (p++; p < end; p++)
                if (*p >= 0x80 || *p == '\r')
                    return 1;
        } else if (p < end) {
            if (count == cap || !read_label(&p, end, &labels[2 * count]))
                return 1;
            if (p == end || !blank(*p))
                return 1;
            while (p < end && blank(*p))
                p++;
            if (!read_label(&p, end, &labels[2 * count + 1]))
                return 1;
            while (p < end && blank(*p))
                p++;
            if (p < end)
                return 1;
            count++;
        }
        p = next;
    }
    *nedges = count;
    return 0;
}

/* ---- set-up: the CSR build -------------------------------------------- */

/* The CSR arrays of the simple graph on nodes 0..n-1 with the `k` edges
 * `edges` (pairs of int64 endpoints, all in [0, n), which the caller has
 * checked), as `graph.build_graph_reported` builds them: each row ascending,
 * self-loops and repeated pairs dropped. Two counting passes place the arcs
 * without a comparison sort: the sources go into buckets by target, and
 * the buckets, read in ascending target order, scatter each target into its
 * source's row, which so comes out sorted. Repeats are then adjacent in a
 * row, and one pass drops them. Requires 2 * k < 2^31.
 *
 * indptr           output, n + 1 offsets
 * indices          output, the 2 * m kept arcs at its front (2 * k room)
 * bucket           scratch of 2 * k ints
 * next             scratch of n ints
 * counts           output: the arcs kept, the self-loops, the repeated pairs
 */
int netbrain_build_csr(const int64_t *edges, int64_t k, int32_t n, int32_t *indptr,
                       int32_t *indices, int32_t *bucket, int32_t *next, int64_t *counts)
{
    int64_t i, loops = 0;
    int32_t v, lo, kept = 0;

    for (v = 0; v <= n; v++)
        indptr[v] = 0;
    for (i = 0; i < k; i++) {
        int32_t a = (int32_t)edges[2 * i], b = (int32_t)edges[2 * i + 1];

        if (a == b) {
            loops++;
        } else {
            indptr[a + 1]++;
            indptr[b + 1]++;
        }
    }
    for (v = 0; v < n; v++) {
        indptr[v + 1] += indptr[v];
        next[v] = indptr[v];
    }
    for (i = 0; i < k; i++) {
        int32_t a = (int32_t)edges[2 * i], b = (int32_t)edges[2 * i + 1];

        if (a != b) {
            bucket[next[b]++] = a;
            bucket[next[a]++] = b;
        }
    }
    for (v = 0; v < n; v++)
        next[v] = indptr[v];
    for (v = 0; v < n; v++) {
        int32_t j;

        for (j = indptr[v]; j < indptr[v + 1]; j++)
            indices[next[bucket[j]]++] = v;
    }
    /* Compact the rows in place; row v's old start is kept in `lo`, since
     * indptr[v] takes its new start before row v + 1 is read. */
    lo = 0;
    for (v = 0; v < n; v++) {
        int32_t hi = indptr[v + 1], j, last = -1;

        indptr[v] = kept;
        for (j = lo; j < hi; j++) {
            if (indices[j] != last) {
                last = indices[j];
                indices[kept++] = last;
            }
        }
        lo = hi;
    }
    indptr[n] = kept;
    counts[0] = kept;
    counts[1] = loops;
    counts[2] = (2 * (k - loops) - kept) / 2;
    return 0;
}

/* ---- set-up: component labels ----------------------------------------- */

/* Each node's component label, the smallest node id in its component: a
 * breadth-first search from each unlabelled node in ascending id order,
 * which labels its whole component with its own id.
 *
 * labels           output, n ints
 * queue            scratch of n ints
 */
int netbrain_components(const int32_t *indptr, const int32_t *indices, int32_t n,
                        int32_t *labels, int32_t *queue)
{
    int32_t s, v;

    for (v = 0; v < n; v++)
        labels[v] = -1;
    for (s = 0; s < n; s++) {
        int32_t head = 0, tail = 0;

        if (labels[s] >= 0)
            continue;
        labels[s] = s;
        queue[tail++] = s;
        while (head < tail) {
            const int32_t *w, *end;

            v = queue[head++];
            end = indices + indptr[v + 1];
            for (w = indices + indptr[v]; w < end; w++) {
                if (labels[*w] < 0) {
                    labels[*w] = s;
                    queue[tail++] = *w;
                }
            }
        }
    }
    return 0;
}

/* ---- set-up: the edge-list text --------------------------------------- */

/* Write the decimal digits of `x` (below 2^31) at `out`; returns their count. */
static int32_t decimal(int32_t x, char *out)
{
    char digits[10];
    int32_t count = 0, i;

    do {
        digits[count++] = (char)('0' + x % 10);
        x /= 10;
    } while (x > 0);
    for (i = 0; i < count; i++)
        out[i] = digits[count - 1 - i];
    return count;
}

/* The edge lines of `fileio.write_edge_list`: "u v\n" for every edge with
 * u < v, in ascending (u, v) order, at `buf`, and their byte count in
 * `*len`. A line takes at most 22 bytes (two ids of at most 10 digits), so
 * 22 * m bytes always suffice. */
int netbrain_format_edges(const int32_t *indptr, const int32_t *indices, int32_t n,
                          char *buf, int64_t *len)
{
    char *p = buf;
    int32_t u;

    for (u = 0; u < n; u++) {
        const int32_t *w = indices + indptr[u], *end = indices + indptr[u + 1];
        char row[11];
        int32_t width;

        while (w < end && *w < u)
            w++; /* rows ascend: skip to the first neighbour above u */
        if (w == end)
            continue;
        width = decimal(u, row);
        row[width++] = ' ';
        for (; w < end; w++) {
            int32_t i;

            for (i = 0; i < width; i++)
                p[i] = row[i];
            p += width;
            p += decimal(*w, p);
            *p++ = '\n';
        }
    }
    *len = p - buf;
    return 0;
}
