/* Native discovery kernel: the walks of `netbrain.dynamics.run_discovery`.
 *
 * The kernel repeats self-avoiding walks from the brain over an int32 CSR
 * adjacency (`indptr`/`indices`) until the brain knows `stop_count` nodes or
 * `stall_limit` walks in a row have added nothing. It follows `_Walker.walk`
 * and `_Walker.discover` in `dynamics.py` move for move, and it draws from a
 * copy of CPython's MT19937 (Modules/_randommodule.c; Matsumoto & Nishimura
 * 1998) seeded from `random.Random.getstate()`. So curves, counters and the
 * generator's end state are bit-identical to the Python engine's.
 *
 * Built on first use by `netbrain._native` with `cc -O2 -fPIC -shared`. The
 * kernel keeps no state between calls, so threads may run it at once on
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
 */
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

            if (look_ahead) {
                for (w = nbrs; w < end; w++)
                    if (state[*w] == UNVISITED)
                        elig[ne++] = *w;
            } else {
                for (w = nbrs; w < end; w++)
                    if (state[*w] < BLOCKED)
                        elig[ne++] = *w;
            }
            if (ne == 0)
                break; /* dead end */
            /* Exactly one draw per move, as in the Python engine. */
            i = (int64_t)(genrand_res53(mt) * (double)ne);
            nxt = elig[i < ne ? i : ne - 1];
            moves++;
            state[cur] = BLOCKED;
            if (look_ahead) {
                for (w = nbrs; w < end; w++) {
                    if (!known[*w]) {
                        known[*w] = 1;
                        count++;
                    }
                    if (state[*w] == UNVISITED) {
                        state[*w] = PRIMED;
                        touched[ntouched++] = *w;
                    }
                }
            } else if (!standard && !reported[cur]) {
                reported[cur] = 1;
                for (w = nbrs; w < end; w++) {
                    if (!known[*w]) {
                        known[*w] = 1;
                        count++;
                    }
                }
            }
            if (state[nxt] == UNVISITED)
                touched[ntouched++] = nxt;
            state[nxt] = CURRENT;
            if (!known[nxt]) {
                known[nxt] = 1;
                count++;
            }
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
