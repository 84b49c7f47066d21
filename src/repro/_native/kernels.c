/* Optional native kernels for the replica-batched direct backend.
 *
 * Compiled lazily by repro._native (plain `cc -O2 -shared -fPIC`) and
 * loaded through ctypes; every entry point has a bit-exact NumPy
 * fallback, so a missing compiler only costs speed, never correctness.
 *
 * The PCG64 arithmetic below mirrors repro.simulation.vecrng exactly:
 * 128-bit LCG step (state = state * PCG_MULT + inc), XSL-RR output,
 * and Lemire 64-bit bounded rejection with the acceptance test on the
 * wrapping low product half.  Streams advanced here and streams
 * advanced by the NumPy limb pipeline are interchangeable mid-run.
 *
 * Every kernel takes an explicit slab of its iteration space ([lo, hi)
 * flat lanes for draw/seed, [r_lo, r_hi) replicas for elect) so the
 * ctypes shim can run slabs on a worker pool: ctypes drops the GIL for
 * the call, per-lane work never reads another slab's state, and the
 * shim's full-range single call is the thread-count-1 behavior.
 */

#include <stdint.h>
#include <stddef.h>

typedef unsigned __int128 u128;

#define PCG_MULT_HI 0x2360ED051FC65DA4ULL
#define PCG_MULT_LO 0x4385DF649FCCF645ULL

/* Bounded draws for every lane in [lo, hi) where mask[i] != 0.
 *
 * States (sh, sl) are updated in place; inc limbs are read-only.  A
 * lane's value lands in out[i] (range [1, high]) only where both mask
 * and need hold -- `need` may be NULL meaning "all masked lanes".
 * With `need` given, lanes at need & !mask get out[i] = 0 (an
 * impossible draw -- values start at 1), so the out plane doubles as
 * the masked-id plane the election kernel reads without re-gathering
 * the active mask.  Lanes outside both stay untouched.  Rejected
 * candidates consume exactly one extra raw u64 each, same as the
 * NumPy path.
 */
void repro_draw_masked(uint64_t *sh, uint64_t *sl,
                       const uint64_t *ih, const uint64_t *il,
                       const uint8_t *mask, const uint8_t *need,
                       int64_t lo, int64_t hi, uint64_t high, int64_t *out)
{
    const u128 mult = ((u128)PCG_MULT_HI << 64) | PCG_MULT_LO;
    const uint64_t threshold = (uint64_t)(0 - high) % high;
    for (int64_t i = lo; i < hi; ++i) {
        if (!mask[i]) {
            if (need != NULL && need[i])
                out[i] = 0;
            continue;
        }
        u128 st = ((u128)sh[i] << 64) | sl[i];
        const u128 inc = ((u128)ih[i] << 64) | il[i];
        uint64_t res;
        for (;;) {
            st = st * mult + inc;
            uint64_t xh = (uint64_t)(st >> 64);
            uint64_t xl = (uint64_t)st;
            uint64_t rot = xh >> 58;
            uint64_t val = xh ^ xl;
            val = (val >> rot) | (val << ((64 - rot) & 63));
            u128 prod = (u128)val * high;
            if ((uint64_t)prod >= threshold) {
                res = (uint64_t)(prod >> 64);
                break;
            }
        }
        sh[i] = (uint64_t)(st >> 64);
        sl[i] = (uint64_t)st;
        if (need == NULL || need[i])
            out[i] = (int64_t)(res + 1);
    }
}

/* Per-lane tail of SeedSequence(entropy).spawn(n) -> PCG64 seeding.
 *
 * The scalar prefix (entropy-pool fill + all-pairs mixing) is computed
 * in Python per seed; this kernel does everything per-lane: the
 * spawn-key hashmix/mix into the four pool words, generate_state(4,
 * uint64), the increment/state limb assembly, and the initial LCG
 * step (pcg_setseq_128_srandom_r: state = step(inc + initstate)).
 * Constants are numpy's seed_seq_fe adoption (32-bit arithmetic).
 *
 * Seeds flat lanes [lo, hi) of the (R, n) plane; lane f belongs to
 * replica f / n and derives from spawn child f % n, so any slab
 * partition produces the same limbs.
 */
#define INIT_B 0x8B51F9DDu
#define MULT_A 0x931E8875u
#define MULT_B 0x58F38DEDu
#define MIX_L 0xCA01F9DDu
#define MIX_R 0x4973F715u

void repro_seed_lanes(const uint32_t *pool4, const uint32_t *hc0,
                      int64_t n, int64_t lo, int64_t hi,
                      uint64_t *ih, uint64_t *il,
                      uint64_t *sh, uint64_t *sl)
{
    const u128 mult = ((u128)PCG_MULT_HI << 64) | PCG_MULT_LO;
    int64_t r = -1;
    uint32_t pre[4], post[4];
    const uint32_t *pool = pool4;
    for (int64_t f = lo; f < hi; ++f) {
        const int64_t fr = f / n;
        const int64_t lane = f - fr * n;
        if (fr != r) {
            /* hash_const advances once per destination word,
             * identically for every lane of a replica: precompute the
             * pre/post-multiply pairs on replica entry. */
            r = fr;
            pool = pool4 + 4 * r;
            uint32_t hc = hc0[r];
            for (int d = 0; d < 4; ++d) {
                pre[d] = hc;
                hc *= MULT_A;
                post[d] = hc;
            }
        }
        uint32_t p[4];
        for (int d = 0; d < 4; ++d) {
            uint32_t v = (uint32_t)lane ^ pre[d];
            v *= post[d];
            v ^= v >> 16;
            uint32_t res = pool[d] * MIX_L - v * MIX_R;
            p[d] = res ^ (res >> 16);
        }
        uint32_t w[8], h2 = INIT_B;
        for (int i = 0; i < 8; ++i) {
            uint32_t v = p[i & 3] ^ h2;
            h2 *= MULT_B;
            v *= h2;
            v ^= v >> 16;
            w[i] = v;
        }
        const uint64_t w0 = w[0] | ((uint64_t)w[1] << 32);
        const uint64_t w1 = w[2] | ((uint64_t)w[3] << 32);
        const uint64_t w2 = w[4] | ((uint64_t)w[5] << 32);
        const uint64_t w3 = w[6] | ((uint64_t)w[7] << 32);
        const uint64_t ihv = (w2 << 1) | (w3 >> 63);
        const uint64_t ilv = (w3 << 1) | 1;
        const u128 inc = ((u128)ihv << 64) | ilv;
        u128 st = inc + (((u128)w0 << 64) | w1);
        st = st * mult + inc;
        ih[f] = ihv;
        il[f] = ilv;
        sh[f] = (uint64_t)(st >> 64);
        sl[f] = (uint64_t)st;
    }
}

/* Adoption-phase ball walks.  The numpy formulation of Part II
 * materializes the full (deficient node, ball member) expansion --
 * repeat/arange/bincount passes over millions of int64 pairs per
 * iteration.  The two walks below stream the same CSR segments with
 * no temporaries, so the numpy path doubles as the readable
 * specification.  Both mutate replica-row planes of C-contiguous
 * blocks; neither is slabbed (pairs touching one node may live
 * anywhere, so threading would race the increments -- the calls are
 * microseconds anyway).
 */

/* Walk 1: one fused adoption-iteration phase.  Given the iteration's
 * deficient pairs over live rows (rows[p] is a *local* row of the
 * (L, n) scratch planes; live[r] maps it to its global row in the
 * full leader / krow planes), this
 *
 *   1. accumulates closed-ball candidate counts into cnt, recording
 *      each first touch in `touched`;
 *   2. classifies every touched leader: small actors (count <= k) are
 *      marked in the `small` plane, big actors (count > k) are
 *      appended to `big` as flat local row*n+node indices — exactly
 *      the set the Python caller must run per-actor sampling for;
 *   3. scans each deficient ball once more: any small member adopts
 *      the pair wholesale (picks[row*n + node] = 1);
 *   4. re-zeroes cnt and small via the touched list, so the scratch
 *      planes can be reused across iterations with no O(L*n) clears.
 *
 * cnt and small must arrive zeroed (the cleanup pass keeps them so);
 * picks arrives zeroed and is left for the caller.  touched and big
 * need capacity L*n.  Returns the number of big actors.  Replaces the
 * leader-plane gathers, boolean temporaries and nonzero scans of the
 * NumPy formulation, which remains the specification fallback. */
int64_t repro_ball_phase(int64_t n, int64_t P,
                         const int64_t *rows, const int64_t *nodes,
                         const int64_t *indptr, const int64_t *indices,
                         const int64_t *live, const uint8_t *leader,
                         const int64_t *krow,
                         int64_t *cnt, uint8_t *small, uint8_t *picks,
                         int64_t *touched, int64_t *big)
{
    int64_t nt = 0, nb = 0;
    for (int64_t p = 0; p < P; ++p) {
        const int64_t base = rows[p] * n;
        const int64_t v = nodes[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            const int64_t u = base + indices[e];
            if (cnt[u] == 0)
                touched[nt++] = u;
            cnt[u] += 1;
        }
    }
    for (int64_t t = 0; t < nt; ++t) {
        const int64_t f = touched[t];
        const int64_t r = f / n;
        const int64_t g = live[r] * n + (f - r * n);
        if (!leader[g])
            continue;
        if (cnt[f] <= krow[live[r]])
            small[f] = 1;
        else
            big[nb++] = f;
    }
    for (int64_t p = 0; p < P; ++p) {
        const int64_t base = rows[p] * n;
        const int64_t v = nodes[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            if (small[base + indices[e]]) {
                picks[base + v] = 1;
                break;
            }
        }
    }
    for (int64_t t = 0; t < nt; ++t) {
        cnt[touched[t]] = 0;
        small[touched[t]] = 0;
    }
    return nb;
}

/* Walk 2: promotion coverage + deficiency refresh.  For each newly
 * promoted pair (rows[p], nodes[p]), bump coverage over the closed
 * ball and recompute the deficiency predicate at each touched node.
 * A node touched several times converges: every write recomputes the
 * full predicate from current coverage, and coverage only grows, so
 * the write after its last increment is the final (correct) value --
 * identical to numpy's increment-all-then-refresh-touched order. */
void repro_ball_adopt(int64_t n, int64_t P,
                      const int64_t *rows, const int64_t *nodes,
                      const int64_t *indptr, const int64_t *indices,
                      int64_t *coverage, const uint8_t *leader,
                      uint8_t *deficient, const int64_t *krow)
{
    for (int64_t p = 0; p < P; ++p) {
        const int64_t r = rows[p];
        const int64_t base = r * n;
        const int64_t k = krow[r];
        const int64_t v = nodes[p];
        for (int64_t e = indptr[v]; e < indptr[v + 1]; ++e) {
            const int64_t u = base + indices[e];
            const int64_t c = coverage[u] + 1;
            coverage[u] = c;
            deficient[u] = !leader[u] && c < k;
        }
    }
}

/* Coverage-plane kernels: the closed-adjacency CSR matvec that serves
 * verification, the service snapshot, demotion prefilters and the
 * Part II adoption plane.  The membership operand arrives as a
 * lane-interleaved uint8 plane xT of shape (n, R): element (i, r) at
 * xT[i * R + r].  That transpose is what makes the batch shape fast --
 * one gathered index serves R replica lanes of contiguous bytes, so
 * the per-edge cost (the gather, the dominant cost of any sparse
 * matvec) is amortized R ways and the 16-lane inner loop vectorizes.
 *
 * Accumulation is exact integer arithmetic (0/1 indicators), so any
 * evaluation order equals scipy's float64 row sums bit for bit once
 * widened to int64.  The 16-lane blocks accumulate in uint16: a row
 * sum is bounded by the closed degree, and the Python shim falls back
 * to the reference path when Delta + 1 could reach 2^16 (never in
 * practice).  Rows are the slab axis: each (replica, row) output is
 * written exactly once, so any thread count is bit-identical.
 */
void repro_member_counts(int64_t n, int64_t R,
                         const int64_t *indptr, const int32_t *indices,
                         const uint8_t *xT, int64_t open_conv,
                         int64_t lo, int64_t hi, int64_t *out)
{
    if (R == 1) {
        /* Single-vector shape: plain gather matvec, int64 accumulator
         * (no degree bound needed). */
        for (int64_t i = lo; i < hi; ++i) {
            int64_t acc = 0;
            for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e)
                acc += xT[indices[e]];
            out[i] = acc - (open_conv ? (int64_t)xT[i] : 0);
        }
        return;
    }
    for (int64_t rb = 0; rb < R; rb += 16) {
        const int64_t bl = (R - rb < 16) ? (R - rb) : 16;
        if (bl == 16) {
            for (int64_t i = lo; i < hi; ++i) {
                uint16_t acc[16] = {0};
                for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
                    const uint8_t *row = xT + (int64_t)indices[e] * R + rb;
                    for (int b = 0; b < 16; ++b)
                        acc[b] += row[b];
                }
                const uint8_t *self = xT + i * R + rb;
                for (int b = 0; b < 16; ++b)
                    out[(rb + b) * n + i] = (int64_t)acc[b]
                        - (open_conv ? (int64_t)self[b] : 0);
            }
        } else {
            for (int64_t i = lo; i < hi; ++i) {
                uint16_t acc[16] = {0};
                for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
                    const uint8_t *row = xT + (int64_t)indices[e] * R + rb;
                    for (int64_t b = 0; b < bl; ++b)
                        acc[b] += row[b];
                }
                const uint8_t *self = xT + i * R + rb;
                for (int64_t b = 0; b < bl; ++b)
                    out[(rb + b) * n + i] = (int64_t)acc[b]
                        - (open_conv ? (int64_t)self[b] : 0);
            }
        }
    }
}

/* Elementwise deficit: out[i] = max(0, req - counts[i]), zeroed at
 * members (open convention: a dominator is never deficient).  `req`
 * may be NULL (uniform req_scalar) and `members` may be NULL (no
 * exemption).  Pure elementwise -- any slab partition is identical. */
void repro_deficit(const int64_t *counts, const int64_t *req,
                   int64_t req_scalar, const uint8_t *members,
                   int64_t lo, int64_t hi, int64_t *out)
{
    for (int64_t i = lo; i < hi; ++i) {
        int64_t d = (req != NULL ? req[i] : req_scalar) - counts[i];
        if (d < 0 || (members != NULL && members[i]))
            d = 0;
        out[i] = d;
    }
}

/* One election round over replicas [r_lo, r_hi).
 *
 * For each within-degree>0 node sub[s] and each replica r where that
 * node is active, find the largest id among the node itself and its
 * active within-range neighbours (ties broken toward the larger node
 * index, matching the NumPy kernel) and mark the winner in elected.
 * Arrays ids / active / elected are C-contiguous (R, n) planes.
 *
 * Inactive candidates are masked to id 0 on the fly (every live
 * identifier is >= 1, so 0 never wins): no per-replica O(n) scratch
 * pass, and the per-round cost tracks the active electors' candidate
 * lists only.  ids_masked != 0 asserts the caller's id plane already
 * holds 0 on every inactive candidate lane (repro_draw_masked's
 * `need` contract provides exactly this), halving the random gathers
 * of the inner loop -- the dominant cost at scale.  Winner marks are
 * idempotent byte stores, so any replica partition is race-free.
 */
void repro_elect_batch(int64_t n, int64_t S,
                       const int64_t *sub, const int64_t *starts,
                       const int64_t *deg, const int64_t *nbr_w,
                       const int64_t *ids, const uint8_t *active,
                       uint8_t *elected, int64_t r_lo, int64_t r_hi,
                       int64_t ids_masked)
{
    for (int64_t r = r_lo; r < r_hi; ++r) {
        const uint8_t *act = active + r * n;
        const int64_t *id = ids + r * n;
        uint8_t *el = elected + r * n;
        for (int64_t s = 0; s < S; ++s) {
            const int64_t v = sub[s];
            if (!act[v])
                continue;
            int64_t best = id[v];
            int64_t node = v;
            const int64_t *p = nbr_w + starts[s];
            const int64_t d = deg[s];
            if (ids_masked) {
                for (int64_t j = 0; j < d; ++j) {
                    const int64_t u = p[j];
                    const int64_t q = id[u];
                    const int better = (q > best)
                        | ((q == best) & (u > node));
                    best = better ? q : best;
                    node = better ? u : node;
                }
            } else {
                for (int64_t j = 0; j < d; ++j) {
                    const int64_t u = p[j];
                    const int64_t q = act[u] ? id[u] : 0;
                    const int better = (q > best)
                        | ((q == best) & (u > node));
                    best = better ? q : best;
                    node = better ? u : node;
                }
            }
            el[node] = 1;
        }
    }
}

/* Columnar inbox reduction over one receiver-major CSR slab.
 *
 * Row i accumulates out[i] = init[i] + sum over its incoming edges e of
 * (mask[e] ? values[e] : 0.0), strictly left to right.  The masked-out
 * term is added as +0.0 rather than skipped so this loop performs the
 * exact same float-add sequence as the column-wise NumPy reference
 * (which adds a zeroed vector term per inbox position): the two are
 * bit-identical on every input, not just on the protocol's value
 * domains.  Each row is written exactly once, so any slab partition
 * over rows is bit-identical to the single-threaded pass.
 */
void repro_inbox_reduce(const int64_t *indptr, const double *values,
                        const uint8_t *mask, const double *init,
                        int64_t lo, int64_t hi, double *out)
{
    for (int64_t i = lo; i < hi; ++i) {
        double acc = init[i];
        for (int64_t e = indptr[i]; e < indptr[i + 1]; ++e)
            acc += mask[e] ? values[e] : 0.0;
        out[i] = acc;
    }
}

/* Permutation gather: out[i] = values[idx[i]] over the slab [lo, hi).
 * Pure gather (each out slot written once), so any slab partition is
 * bit-identical; used to flip per-edge columns between sender-major
 * and receiver-major order in the columnar protocol plane. */
void repro_state_scatter_f64(const int64_t *idx, const double *values,
                             int64_t lo, int64_t hi, double *out)
{
    for (int64_t i = lo; i < hi; ++i)
        out[i] = values[idx[i]];
}

void repro_state_scatter_u8(const int64_t *idx, const uint8_t *values,
                            int64_t lo, int64_t hi, uint8_t *out)
{
    for (int64_t i = lo; i < hi; ++i)
        out[i] = values[idx[i]];
}
