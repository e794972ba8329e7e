/* Compiled sweep kernels for cxrns.sweeps (C99, loaded through ctypes).
 *
 * Each unit's case space is written here once, as its <unit>_spec table: per
 * field the kind of its span, its base and its random-counter slot, as
 * sweeps.UNITS builds them.  A kernel runs exactly that spec where fits(n, p)
 * of its SWEEP line holds, exhaustively below 2^63 cases, in the width arm of
 * n, whose case loop reads the table as constants; it declines any other spec,
 * which then runs on the pure-Python engine.  An exhaustive sweep walks the
 * flat index (first field most significant) in blocks of cases; a random sweep
 * gives field f of case k the value base + draw(seed, 8k + slot) mod span.
 * Each case function mirrors its unit's Python dataflow and returns whether
 * the case is a mismatch.  The case functions have no branches gcc cannot turn
 * into selects, and one rule takes their remainders: a block loop folds, by
 * m = 2^2n + 1 end-around (mod_m) and by 2^4n - 1 in Mersenne chunks
 * (mod_mersenne), and a loop of one case at a time divides.  So a block loop
 * runs several cases per vector instruction.  Exhaustive sweeps always run in
 * such blocks; random sweeps do where the target has AVX2 (its 32-bit vector
 * multiplies build the draw's 64-bit ones), and elsewhere run one case at a
 * time, which is faster there.  Either way a random case draws its fields
 * through draw_at.  Internal helpers are static so the case loop never calls
 * through the PLT; the exported helpers exist for parity tests.
 *
 * Lanes.  The dataflow, the case functions and the exhaustive loop are written
 * once, in the lane section at the end of this file, over the lane type WORD;
 * the file includes itself to compile that section twice, on uint32_t lanes
 * (names ending _32) and on uint64_t lanes (_64).  An arm's exhaustive loop
 * runs on 32-bit lanes, twice as many cases per vector, where its unit's
 * bound, the widest value its case function forms at width n (the last
 * column of its SWEEP line), is at most 32 bits and the spans its decode
 * counter covers multiply to at most 2^32 (see lanes_32): adder, csa and
 * normalize form sums of 2n + 2 bits, multiplier and checkpoint the product
 * x y of 4n + 1, forward reduces a z of 5n and compressor sums to n + 2;
 * roundtrip's New-CRT sum is bounded only by 2^64.  So the exhaustive loops
 * of adder, multiplier, checkpoint and compressor run on 32-bit lanes up to n
 * = 7, of forward and csa up to n = 6 and of normalize up to n = 15; every
 * other exhaustive loop, and every random one, whose draws are 64 bits, runs
 * on 64-bit lanes.
 */

#ifndef WORD  /* the file itself; the lane section at its end is compiled per WORD */

#include <stdint.h>

/* GNU C, as the __int128 and __builtin_ calls below need anyway */
#define INLINE static inline __attribute__((always_inline))

#define MAX_FIELDS 8
#define SLOTS 8
#define BLOCK 256  /* cases per block of the vectorised case loops */
#define GOLDEN 0x9E3779B97F4A7C15u
#define ONES(k) (((uint64_t)1 << (k)) - 1)  /* the largest value of k bits */
#if defined(__AVX2__)
#define RANDOM_BLOCKS 1  /* random sweeps run in blocks too (see run_cases) */
#else
#define RANDOM_BLOCKS 0
#endif

typedef unsigned __int128 u128;

/* a mod 2^q - 1 for a < 2^bits, q >= 8 and bits <= 8q (64 - n bits at q =
 * 4n), by folds that vectorise: since 2^q = 1, the sum s of a's q-bit
 * chunks is congruent to a.  Where bits < 2q, s is below 2 (2^q - 1);
 * elsewhere s, below 8 2^q, folds once more to below 2^q + 8.  One
 * compare-subtract then leaves the remainder. */
INLINE uint64_t mod_mersenne(uint64_t a, int q, int bits)
{
    uint64_t ones = ONES(q), s = 0;
    for (int i = 0; i < bits; i += q)
        s += a >> i & ones;
    if (bits >= 2 * q)
        s = (s & ones) + (s >> q);
    return s - (ones & -(uint64_t)(s >= ones));
}

/* --- counter-based PRNG (splitmix64) ------------------------------------- */

INLINE uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9u;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBu;
    return x ^ (x >> 31);
}

/* --- built-in specs --------------------------------------------------------- */

/* Each unit's spec as sweeps.UNITS builds it: per field, most significant
 * first, its span kind (2, 2^n, 2^2n, m or the dynamic range DR), base and
 * random-counter slot. */
enum { S_2, S_N, S_2N, S_M, S_DR };
struct field { unsigned char span, base, slot; };

static const struct field adder_spec[] = {  /* x, i, r, carry, borrow */
    {S_M, 0, 0}, {S_N, 0, 2}, {S_N, 0, 1}, {S_2, 0, 4}, {S_2, 0, 3}};
static const struct field multiplier_spec[] = {{S_M, 0, 0}, {S_M, 0, 1}};     /* x, y */
static const struct field checkpoint_spec[] = {{S_2N, 1, 0}, {S_2N, 1, 1}};   /* x, y */
static const struct field forward_spec[] = {{S_DR, 0, 0}};  /* z, at p = 0: wide_range */
static const struct field roundtrip_spec[] = {{S_DR, 0, 0}};                  /* z */
static const struct field compressor_spec[] = {  /* a, b, c, d, t_in, v_in */
    {S_N, 0, 0}, {S_N, 0, 1}, {S_N, 0, 2}, {S_N, 0, 3}, {S_2, 0, 4}, {S_2, 0, 5}};
static const struct field csa_spec[] = {{S_N, 0, 0}, {S_2N, 0, 1}, {S_2N, 0, 2}};  /* z2, z1, z0 */
static const struct field normalize_spec[] = {  /* i, r, carry, borrow */
    {S_N, 0, 2}, {S_N, 0, 0}, {S_2, 0, 3}, {S_2, 0, 1}};
#define ARITY(unit) (int)(sizeof unit##_spec / sizeof *unit##_spec)
#define P_IS_0(n, p) ((p) == 0)  /* the bound on p of every unit but roundtrip */
#define FORWARD_FITS(n, p) ((p) == 0 && 5 * (n) < 64)
#define CHECKPOINT_FITS(n, p) ((p) == 0 && (n) <= 30)

/* Each unit's bound: the widest value, in bits, its case function forms at
 * width n, m = 2^2n + 1 included where it reads m. */
#define SUM_BITS(n) (2 * (n) + 2)      /* phi's sums and the want sums, below 3 2^2n + 2^n */
#define PRODUCT_BITS(n) (4 * (n) + 1)  /* x y for x, y <= 2^2n */
#define INPUT_BITS(n) (5 * (n))        /* forward's z, below 2^5n */
#define CARRY_BITS(n) ((n) + 2)        /* compressor: a + b + c + d + t_in + v_in */
#define NCRT_BITS(n) 64                /* roundtrip's S, below 2^64 where roundtrip_fits */

/* The span of kind k at width n and exponent p: 2^(n+p) (2^4n - 1) for DR,
 * the dynamic range of f_set(n, p).  Only m and DR are not powers of two. */
INLINE uint64_t span_of(int k, int n, int p)
{
    return k == S_2 ? 2 : k == S_N ? (uint64_t)1 << n
           : k == S_DR ? ONES(4 * n) << (n + p) : ((uint64_t)1 << 2 * n) + (k == S_M);
}

/* The first field of an exhaustive sweep's decode counter: the last field of
 * spec whose span is m or DR, or 0.  This helper and span_product are
 * written out for six fields, the most a spec has, as gcc would fold a loop
 * only in its late passes, after each arm has carried both exhaustive loops
 * through the inter-procedural ones. */
#define SPLIT(f) g = (f) < nf && (spec[(f) % nf].span == S_M || spec[(f) % nf].span == S_DR) ? (f) : g
INLINE int split_of(const struct field *spec, int nf)
{
    int g = 0;
    SPLIT(1), SPLIT(2), SPLIT(3), SPLIT(4), SPLIT(5);
    return g;
}

/* The product of the spans of spec's fields g.. at width n and p = 0,
 * saturating at 2^63 or more. */
#define TIMES(f) cases *= cases >> 63 || (f) < g || (f) >= nf ? 1 : span_of(spec[(f) % nf].span, n, 0)
INLINE u128 span_product(const struct field *spec, int nf, int n, int g)
{
    u128 cases = 1;
    TIMES(0), TIMES(1), TIMES(2), TIMES(3), TIMES(4), TIMES(5);
    return cases;
}

/* Whether spec at n, p = 0 has fewer than 2^63 cases, the most run_cases
 * indexes (roundtrip_fits keeps roundtrip's so at any p). */
INLINE int indexable(const struct field *spec, int nf, int n)
{
    return !(span_product(spec, nf, n, 0) >> 63);
}

/* Whether spec's exhaustive loop at width n runs on 32-bit lanes: its unit's
 * bound of `bits` fits them, and so does its decode counter, whose spans
 * multiply to at most 2^32. */
INLINE int lanes_32(const struct field *spec, int nf, int n, int bits)
{
    return bits <= 32 && span_product(spec, nf, n, split_of(spec, nf)) <= (u128)1 << 32;
}

/* Whether span, base and slot are those of spec at width n and exponent p. */
static int spec_is(const struct field *spec, int nf, int n, int p, const uint64_t *span,
                   const uint64_t *base, const uint64_t *slot)
{
    for (int f = 0; f < nf; f++)
        if (span[f] != span_of(spec[f].span, n, p) || base[f] != spec[f].base
            || slot[f] != spec[f].slot)
            return 0;
    return 1;
}

/* Whether n, p keep roundtrip_bad's New-CRT sum S = sum_k mu_k (x_{k+1}
 * + 2^(n+p) - x_k) + off below 2^64: each mu_k and off is below 2^4n - 1, and
 * the three factors are at most 2^n + 2^(n+p), 2^n + 2^(n+p) and 2^2n
 * + 2^(n+p), so S < 2^4n (2^(n+1) + 2^2n + 3 2^(n+p)) + 2^4n, about 2^62 at
 * n = p = 10.  That bound also keeps the dynamic range below 2^63. */
static int roundtrip_fits(int n, int64_t p)
{
    return p >= 0 && 5 * n + p < 64
           && ((u128)1 << 4 * n) * (((u128)2 << n) + ((u128)1 << 2 * n) + ((u128)3 << (n + p)) + 1)
              < (u128)1 << 64;
}

/* --- the lane section, at 32 and at 64 bits ---------------------------------- */

/* The file itself, found beside itself whatever the working directory: gcc
 * 12 and clang 9 on give its name alone, which the include looks up in the
 * file's own directory first. */
#ifdef __FILE_NAME__
#define SELF __FILE_NAME__
#else
#define SELF __FILE__
#endif
#define L(name) LANE_(name, WORD_BITS)  /* name's instance at this WORD */
#define LANE_(name, bits) LANE__(name, bits)
#define LANE__(name, bits) name##_##bits

#define WORD uint32_t
#define WORD_BITS 32
#include SELF
#undef WORD
#undef WORD_BITS
#define WORD uint64_t
#define WORD_BITS 64
#include SELF
#undef WORD
#undef WORD_BITS

/* --- random case loop -------------------------------------------------------- */

/* d mod the span of kind k, for a draw d.  Span m goes through mod_m, which
 * in a block loop folds from n = 11 on.  There span 2^a (2^4n - 1), a = n +
 * p, keeps d's low a bits and folds the rest, below 2^(64 - n), by 2^4n - 1:
 * 64 - n, unlike 64 - a, is a constant in a width arm, so the chunk loop
 * unrolls (with 64 - a, forward n = 12 random read 0.19x).  A power of two
 * masks; other remainders divide. */
INLINE uint64_t draw_mod(const struct ctx_64 *c, int k, uint64_t d)
{
    int a = c->n + c->p, q = 4 * c->n;
    uint64_t span = span_of(k, c->n, c->p);
    if (k == S_M)
        return mod_m_64(c, d, 64);
    if (k == S_DR)
        return c->lanes ? (d & ONES(a)) | mod_mersenne(d >> a, q, 64 - c->n) << a : d % span;
    return d & (span - 1);
}

/* Whether random case k of the current run is a mismatch: field f takes the
 * value base + draw(seed, SLOTS k + slot) mod span of its spec entry, the
 * draw keyed by key[f]. */
INLINE int draw_at(const struct ctx_64 *c, bad_fn_64 *bad, const struct field *spec, int nf,
                   const uint64_t *key, uint64_t k)
{
    uint64_t w[MAX_FIELDS];
#pragma GCC unroll 8
    for (int f = 0; f < nf; f++)
        w[f] = spec[f].base + draw_mod(c, spec[f].span, mix64(key[f] + k * (SLOTS * GOLDEN)));
    return bad(c, w);
}

/* The loop a width arm runs a sweep in. */
enum { LOOP_RANDOM, LOOP_LANES_32, LOOP_LANES_64 };

/* Runs cases [lo, hi) of spec, a table of nf fields, at width n in `loop`;
 * out gets (failures, first failing index or -1).  In a width arm the table
 * is static const, nf, n and loop constants, so every read of spec folds,
 * and with it each field's span, base and kind tests and the exhaustive
 * decode's shifts and masks.  gcc folds them before it vectorises only in a
 * field loop it has unrolled, so the loops that read kinds say #pragma GCC
 * unroll 8 (MAX_FIELDS): without it, adder n = 4 exhaustive read 0.42x and
 * compressor n = 4 0.35x, their block loops no longer vectorised.  An
 * exhaustive sweep runs the lane section's run_exhaustive on the lanes
 * `loop` names.
 *
 * Where the target has AVX2, a random sweep runs blocks of BLOCK cases from
 * lo the way run_exhaustive does, each of BLOCK counted steps that mask off
 * the cases past hi: a fixed trip count leaves gcc no vector epilogue to
 * emit per loop.  Elsewhere, where a 64-bit vector multiply costs more than
 * it saves, it runs one case at a time: forcing the block loop on such a
 * target read 0.76-0.95x on five random units.  Both loops draw each case
 * through draw_at on 64-bit lanes; the block loop folds its remainders, the
 * other divides. */
INLINE void run_cases(int n, const int64_t *args, int loop, bad_fn_64 *bad, bad_fn_32 *bad_32,
                      const struct field *spec, int nf, uint64_t seed, uint64_t lo,
                      uint64_t hi, int64_t *out)
{
    struct ctx_64 c = ctx_make_64(n, args), cl = c;  /* cl for the block loops, which fold */
    cl.lanes = 1;
    /* Where random sweeps run in blocks, the hint lays them out after the
     * exhaustive loops.  In line, they move the exhaustive loops' code:
     * without the hint, multiplier n = 5 exhaustive read 0.95x in two
     * 15-round native kernel_ab.py records (0 and 3 rounds won), though n =
     * 8, on 64-bit lanes, read 1.04x.  The scalar loop of other targets read
     * up to 0.88x with it. */
    if (RANDOM_BLOCKS ? __builtin_expect(loop == LOOP_RANDOM, 0) : loop == LOOP_RANDOM) {
        uint64_t key[MAX_FIELDS], failures = 0;
        int64_t first = -1;
        for (int f = 0; f < nf; f++)
            key[f] = seed + (spec[f].slot + 1u) * GOLDEN;  /* draw(seed, SLOTS k + slot) at k = 0 */
#if RANDOM_BLOCKS
        for (uint64_t k = lo; k < hi; k += BLOCK) {
            unsigned mismatches = 0, j;
            for (j = 0; j < BLOCK; j++)
                mismatches += (unsigned)(k + j < hi)
                              & (unsigned)draw_at(&cl, bad, spec, nf, key, k + j);
            if (mismatches && failures == 0) {
                for (j = 0; !draw_at(&cl, bad, spec, nf, key, k + j); j++)
                    ;
                first = (int64_t)(k + j);
            }
            failures += mismatches;
        }
#else
        for (uint64_t k = lo; k < hi; k++)
            if (draw_at(&c, bad, spec, nf, key, k) && failures++ == 0)
                first = (int64_t)k;
#endif
        out[0] = (int64_t)failures;
        out[1] = first;
    } else if (loop == LOOP_LANES_32) {
        struct ctx_32 cn = ctx_make_32(n, args);
        cn.lanes = 1;
        run_exhaustive_32(&cn, bad_32, spec, nf, lo, hi, out);
    } else {
        run_exhaustive_64(&cl, bad, spec, nf, lo, hi, out);
    }
}

/* One arm of the width switch: the case loop with n, and so every modulus,
 * mask and shift derived from it, a compile-time constant, which turns each
 * % by a modulus into a multiply and a shift.  An arm where fits(k, 0) fails
 * is dropped before inlining; one whose spec is not indexable runs only random
 * sweeps (its exhaustive loops are dropped) and declines exhaustive ones.  An
 * exhaustive sweep runs on 32-bit lanes where lanes_32 holds for the unit's
 * bound and on 64-bit ones elsewhere, and each arm keeps only the one loop. */
#define ARM(k, unit, fits, bits)                                                    \
    case k:                                                                         \
        if (fits(k, 0) && (random || indexable(unit##_spec, ARITY(unit), k))) {     \
            run_cases(k, args,                                                      \
                      random || !indexable(unit##_spec, ARITY(unit), k) ? LOOP_RANDOM \
                      : lanes_32(unit##_spec, ARITY(unit), k, bits(k)) ? LOOP_LANES_32 \
                      : LOOP_LANES_64,                                              \
                      unit##_bad_64, unit##_bad_32, unit##_spec, ARITY(unit), seed, \
                      lo, hi, out);                                                 \
            return 0;                                                               \
        }                                                                           \
        break;
#define ARMS(...) \
    ARM(2, __VA_ARGS__) ARM(3, __VA_ARGS__) ARM(4, __VA_ARGS__) ARM(5, __VA_ARGS__) \
    ARM(6, __VA_ARGS__) ARM(7, __VA_ARGS__) ARM(8, __VA_ARGS__) ARM(9, __VA_ARGS__) \
    ARM(10, __VA_ARGS__) ARM(11, __VA_ARGS__) ARM(12, __VA_ARGS__)                  \
    ARM(13, __VA_ARGS__) ARM(14, __VA_ARGS__) ARM(15, __VA_ARGS__)                  \
    ARM(16, __VA_ARGS__) ARM(17, __VA_ARGS__) ARM(18, __VA_ARGS__)                  \
    ARM(19, __VA_ARGS__) ARM(20, __VA_ARGS__) ARM(21, __VA_ARGS__)                  \
    ARM(22, __VA_ARGS__) ARM(23, __VA_ARGS__) ARM(24, __VA_ARGS__)                  \
    ARM(25, __VA_ARGS__) ARM(26, __VA_ARGS__) ARM(27, __VA_ARGS__)                  \
    ARM(28, __VA_ARGS__) ARM(29, __VA_ARGS__) ARM(30, __VA_ARGS__)                  \
    ARM(31, __VA_ARGS__)

/* sweep_<unit>: returns 1, running nothing, when it declines the spec, which
 * is any but <unit>_spec at n = 2..31 and p = args[0] where fits(n, p), the
 * one statement of where the kernel is exact, holds, and an exhaustive one
 * past 2^63 - 1 cases.  That answer alone decides whether a sweep runs
 * compiled.  A spec it runs goes to the width arm of n.  bits is the unit's
 * bound, which picks the lanes of its exhaustive loops. */
#define SWEEP(unit, fits, bits)                                                     \
    int sweep_##unit(int n, const int64_t *args, int nf, const uint64_t *span,      \
                     const uint64_t *base, const uint64_t *slot, int random,        \
                     uint64_t seed, uint64_t lo, uint64_t hi, int64_t *out)         \
    {                                                                               \
        if (n < 2 || n > 31 || !fits(n, args[0]) || nf != ARITY(unit)              \
            || !spec_is(unit##_spec, nf, n, (int)args[0], span, base, slot))        \
            return 1;                                                               \
        switch (n) {                                                                \
            ARMS(unit, fits, bits)                                                  \
        }                                                                           \
        return 1;                                                                   \
    }

SWEEP(adder, P_IS_0, SUM_BITS)
SWEEP(multiplier, P_IS_0, PRODUCT_BITS)
SWEEP(checkpoint, CHECKPOINT_FITS, PRODUCT_BITS)  /* i_sum 2^n fits in 63 bits */
SWEEP(forward, FORWARD_FITS, INPUT_BITS)          /* 5n-bit inputs fit in 63 bits */
SWEEP(roundtrip, roundtrip_fits, NCRT_BITS)
SWEEP(compressor, P_IS_0, CARRY_BITS)
SWEEP(csa, P_IS_0, SUM_BITS)
SWEEP(normalize, P_IS_0, SUM_BITS)

/* --- exported helpers (parity checks against the Python dataflow) ----------- */

uint64_t draw(uint64_t seed, uint64_t counter)
{
    return mix64(seed + (counter + 1) * GOLDEN);
}

void add_fields(int n, uint64_t xr, uint64_t xi, uint64_t xz, uint64_t yr, uint64_t yb,
                uint64_t yi, uint64_t yc, uint64_t *out)
{
    add4_64(n, xr, xi, xz, yr, yb, yi, yc, out);
}

void mul_fields(int n, uint64_t xr, uint64_t xi, uint64_t yr, uint64_t yi, uint64_t *out)
{
    mul4_64(n, xr, xi, yr, yi, out);
}

#else  /* --- lane section: everything below is written over WORD ------------ */

/* Per-sweep constants; the roundtrip ones come from its kernel arguments.
 * lanes: the case runs in a vectorised block loop, so its remainders fold. */
struct L(ctx) {
    int n, p, lanes;
    WORD m, mask;              /* 2^2n + 1, 2^n - 1 */
    WORD m2, m3, tail;         /* 2^n - 1, 2^n + 1, m2*m3*m = 2^4n - 1 */
    WORD mu1, mu2, mu3, off;   /* New-CRT coefficients; -2^(n+p) sum(mu) mod tail */
};

/* A case function: field values in spec order, nonzero on a mismatch. */
typedef int L(bad_fn)(const struct L(ctx) *, const WORD *);

INLINE struct L(ctx) L(ctx_make)(int n, const int64_t *args)
{
    struct L(ctx) c;
    c.n = n;
    c.lanes = 0;
    c.p = (int)args[0];
    c.m = ((WORD)1 << (2 * n)) + 1;
    c.mask = ((WORD)1 << n) - 1;
    c.m2 = c.mask;
    c.m3 = c.mask + 2;
    c.tail = c.m2 * c.m3 * c.m;
    c.mu1 = (WORD)args[1];
    c.mu2 = (WORD)args[2];
    c.mu3 = (WORD)args[3];
    c.off = (WORD)args[4];
    return c;
}

/* a % c->m for a < 2^bits, where bits follows from n and the unit's built-in
 * spec, the only one a kernel runs.  In a width arm n, and so bits, is a
 * constant and the tests fold away.  The block loop (lanes) reduces in ways
 * that vectorise, as a 64-bit remainder does not: below 2^32 by a 32-bit
 * remainder, below 2^6n by folding end-around (2^2n = -1 mod m) to below 3m
 * and subtracting m at most twice.  A scalar loop takes a 64-bit remainder,
 * because gcc turns some 32-bit ones into longer shift-add chains. */
INLINE WORD L(mod_m)(const struct L(ctx) *c, WORD a, int bits)
{
    int w = 2 * c->n;
    if (c->lanes && bits <= 32)
        return (uint32_t)a % (uint32_t)c->m;
    if (c->lanes && bits <= 3 * w) {
        WORD wmask = c->m - 2;
        WORD t = (a & wmask) + (bits > 2 * w ? a >> (2 * w) : 0) + c->m - ((a >> w) & wmask);
        t -= 2 * c->m & -(WORD)(t >= 2 * c->m);
        return t - (c->m & -(WORD)(t >= c->m));
    }
    return a % c->m;
}

/* x y mod c->m for x, y <= 2^2n, as the multiplier and checkpoint specs'
 * operands are, so the product is below 2^(4n+1).  Where random sweeps run
 * in blocks, the width arm of n = 16, where the product passes 64 bits,
 * splits each operand at 2^2n = -1 (mod m) into x = xh 2^2n + xl, xh a bit:
 * x y = xl yl - xh yl - yh xl + xh yh (mod m) needs only 64-bit words and
 * 32-bit vector multiplies.  Past n = 16 xl yl passes 64 bits too.
 * Elsewhere a product that fits the lane goes to mod_m, and a wider one
 * takes a u128 remainder, exact as well, or a 64-bit one where its high
 * word is zero: in a scalar loop the split read 0.91x. */
INLINE WORD L(mul_mod_m)(const struct L(ctx) *c, WORD x, WORD y)
{
    int w = 2 * c->n;
    u128 a;
    if (RANDOM_BLOCKS && 4 * c->n + 1 > 64 && 2 * w <= 64) {
        WORD wmask = c->m - 2, xh = x >> w, yh = y >> w, xl = x & wmask, yl = y & wmask;
        return L(mod_m)(c, L(mod_m)(c, xl * yl, 64) + 2 * c->m - (yl & -xh) - (xl & -yh)
                           + (xh & yh), w + 2);
    }
    if (4 * c->n + 1 <= WORD_BITS)
        return L(mod_m)(c, x * y, 4 * c->n + 1);
    a = (u128)x * y;
    return (WORD)(a >> 64 ? a % c->m : (uint64_t)a % c->m);
}

/* --- dataflow --------------------------------------------------------------- */

INLINE void L(split_fresh)(int n, WORD x, WORD *xr, WORD *xi, WORD *xz)
{
    if (x == 0) {
        *xr = *xi = 0;
        *xz = 1;
    } else {
        *xr = (x - 1) & (((WORD)1 << n) - 1);
        *xi = (x - 1) >> n;
        *xz = 0;
    }
}

INLINE void L(add4)(int n, WORD xr, WORD xi, WORD xz, WORD yr, WORD yb, WORD yi, WORD yc,
                    WORD *out)
{
    WORD mask = ((WORD)1 << n) - 1, xnz = xz ^ 1;
    WORD sr = xr + yr + ((yb ^ 1) & xnz);
    WORD si = xi + yi + (yc & xnz);
    out[0] = sr & mask;
    out[1] = (si >> n) | (yb & xz);
    out[2] = si & mask;
    out[3] = (sr >> n) | (yc & xz);
}

/* (4;2) compressor: returns u; *vh, *cn, *vn take the other outputs. */
INLINE WORD L(compress42)(int n, WORD a, WORD b, WORD c, WORD d, WORD t_in, WORD v_in,
                          WORD *vh, WORD *cn, WORD *vn)
{
    WORD mask = ((WORD)1 << n) - 1;
    WORD p = a ^ b ^ c;
    WORD t = (((a & b) | (a & c) | (b & c)) << 1) | t_in;
    WORD vw = ((((p & d) | (p & t) | (d & t)) & mask) << 1) | v_in;
    *vh = vw & mask;
    *cn = t >> n;
    *vn = vw >> n;
    return (p ^ d ^ t) & mask;
}

INLINE void L(mul4)(int n, WORD xr, WORD xi, WORD yr, WORD yi, WORD *out)
{
    WORD mask = ((WORD)1 << n) - 1;
    WORD p1 = (1 + xr) * (1 + yr), p2 = (1 + xr) * yi;
    WORD p3 = xi * (1 + yr), p4 = xi * yi;
    WORD c = p1 >> (2 * n), vh, cn, vn, vh2, cn2, vn2;
    WORD u = L(compress42)(n, p1 & mask, (p4 & mask) ^ mask, (p2 >> n) ^ mask,
                           (p3 >> n) ^ mask, c ^ 1, 0, &vh, &cn, &vn);
    WORD u2 = L(compress42)(n, (p1 >> n) & mask, p2 & mask, p3 & mask,
                            (p4 >> n) ^ mask, cn, vn, &vh2, &cn2, &vn2);
    WORD b1 = vh | (vn2 ^ 1), d1 = cn2 ^ 1, cst = mask ^ 1;
    WORD w = u ^ b1 ^ d1;
    WORD carry = ((u & b1) | (u & d1) | (b1 & d1)) << 1;
    WORD w2 = u2 ^ vh2 ^ cst;
    WORD carry2 = ((u2 & vh2) | (u2 & cst) | (vh2 & cst)) << 1;
    WORD z = (carry & mask) | ((carry2 >> n) ^ 1);
    WORD z2 = (carry2 & mask) | (carry >> n);
    WORD sr = w + z + 1, si = w2 + z2;
    out[0] = sr & mask;
    out[1] = si >> n;
    out[2] = si & mask;
    out[3] = sr >> n;
}

/* (r - borrow + 2^n (i + carry)) mod m of fields (r, borrow, i, carry), each
 * below 2^n (borrow up to m). */
INLINE WORD L(phi)(const struct L(ctx) *c, const WORD *f)
{
    return L(mod_m)(c, f[0] + ((f[2] + f[3]) << c->n) + c->m - f[1], 2 * c->n + 2);
}

/* Modulo-(2^2n + 1) carry-save stage over (z2, ~z1, z0): returns u; *v takes
 * the carry word with its position-2n carry folded in as a complemented LSB. */
INLINE WORD L(csa22n1)(int n, WORD z2, WORD z1, WORD z0, WORD *v)
{
    WORD wmask = ((WORD)1 << (2 * n)) - 1, z1b = z1 ^ wmask;
    WORD cw = ((z2 & z1b) | (z2 & z0) | (z1b & z0)) << 1;
    *v = (cw & wmask) | ((cw >> (2 * n)) ^ 1);
    return z2 ^ z1b ^ z0;
}

INLINE WORD L(forward_dim1)(int n, WORD m, WORD z)
{
    WORD wmask = ((WORD)1 << (2 * n)) - 1, v;
    WORD t = L(csa22n1)(n, z >> (4 * n), (z >> (2 * n)) & wmask, z & wmask, &v) + v;
    t -= m & -(WORD)(t >= m);  /* no branch: t >= m is a coin toss on random inputs */
    return (t & wmask) + 1 - (t >> (2 * n));  /* flagged: bits + (1 - zflag) */
}

/* --- case functions: field values in spec order, nonzero on a mismatch ----- */

INLINE int L(adder_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD x = v[0], i = v[1], r = v[2], carry = v[3], borrow = v[4];
    WORD xr, xi, xz, f[4];
    L(split_fresh)(c->n, x, &xr, &xi, &xz);
    L(add4)(c->n, xr, xi, xz, r, borrow, i, carry, f);
    /* x <= 2^2n and i + carry <= 2^n keep the sum below 3 2^2n + 2^n */
    return L(phi)(c, f) != L(mod_m)(c, x + r + ((i + carry) << c->n) + c->m - borrow,
                                    2 * c->n + 2);
}

INLINE int L(multiplier_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD x = v[0], y = v[1], xr, xi, xz, yr, yi, yz, f[4];
    L(split_fresh)(c->n, x, &xr, &xi, &xz);
    L(split_fresh)(c->n, y, &yr, &yi, &yz);
    L(mul4)(c->n, xr, xi, yr, yi, f);
    /* a zero flag gates the product to canonical zero */
    return (L(phi)(c, f) & ((xz | yz) - 1)) != L(mul_mod_m)(c, x, y);
}

INLINE int L(checkpoint_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD x = v[0], y = v[1], xr, xi, xz, yr, yi, yz, mask = c->mask;
    L(split_fresh)(c->n, x, &xr, &xi, &xz);
    L(split_fresh)(c->n, y, &yr, &yi, &yz);
    WORD p1 = (1 + xr) * (1 + yr), p2 = (1 + xr) * yi;
    WORD p3 = xi * (1 + yr), p4 = xi * yi;
    WORD r_sum = (p1 & mask) + ((p4 & mask) ^ mask) + ((p2 >> c->n) ^ mask)
                 + ((p3 >> c->n) ^ mask) + ((p1 >> (2 * c->n)) ^ 1) + 3;
    WORD i_sum2 = ((p1 >> c->n) & mask) + (p2 & mask) + (p3 & mask)
                  + ((p4 >> c->n) ^ mask);  /* i_sum + 2 */
    /* r_sum + 2^n i_sum + m, which m > 2^(n+1) keeps nonnegative */
    WORD t = L(mod_m)(c, r_sum + (i_sum2 << c->n) + c->m - ((WORD)2 << c->n), 2 * c->n + 4);
    return t != L(mul_mod_m)(c, x, y);
}

INLINE int L(forward_bad)(const struct L(ctx) *c, const WORD *v)
{
    return L(forward_dim1)(c->n, c->m, v[0]) != L(mod_m)(c, v[0], 5 * c->n);
}

/* x1..x4 are z's residues by 2^(n+p), m2, m3 and m.  The New-CRT sum adds
 * 2^(n+p) to each difference, which keeps it unsigned, and off takes the
 * added 2^(n+p) sum(mu) away again modulo tail = 2^4n - 1.  The block loop
 * reduces by Mersenne folds: z to y = z mod tail, y to x4 by mod_m and, once
 * folded at 2n bits (2^2n = 1 mod m2 m3) to below 2^32, to x2 and x3 by
 * 32-bit remainders; the sum to its remainder by tail.  A scalar loop
 * divides. */
INLINE int L(roundtrip_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD z = v[0], w = (WORD)1 << (c->n + c->p), x1 = z & (w - 1), x2, x3, x4, s;
    int q = 4 * c->n;
    if (c->lanes) {
        WORD y = (WORD)mod_mersenne(z, q, 63);
        uint32_t y2 = (uint32_t)((y & ONES(2 * c->n)) + (y >> (2 * c->n)));
        x2 = y2 % (uint32_t)c->m2;
        x3 = y2 % (uint32_t)c->m3;
        x4 = L(mod_m)(c, y, q);
    } else {
        x2 = z % c->m2;
        x3 = z % c->m3;
        x4 = z % c->m;
    }
    s = c->mu1 * (x2 + w - x1) + c->mu2 * (x3 + w - x2) + c->mu3 * (x4 + w - x3) + c->off;
    s = c->lanes ? (WORD)mod_mersenne(s, q, 64) : s % c->tail;
    return x1 + w * s != z;
}

INLINE int L(compressor_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD vh, cn, vn;
    WORD u = L(compress42)(c->n, v[0], v[1], v[2], v[3], v[4], v[5], &vh, &cn, &vn);
    return u + vh + ((cn + vn) << c->n) != v[0] + v[1] + v[2] + v[3] + v[4] + v[5];
}

INLINE int L(csa_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD z2 = v[0], z1 = v[1], z0 = v[2], wmask = c->m - 2, w;
    WORD u = L(csa22n1)(c->n, z2, z1, z0, &w);
    /* z2 < 2^n and z1, z0 < 2^2n keep both sums below 2^(2n+2) */
    return L(mod_m)(c, u + w, 2 * c->n + 2)
           != L(mod_m)(c, z2 + (z1 ^ wmask) + z0 + 1, 2 * c->n + 2);
}

INLINE int L(normalize_bad)(const struct L(ctx) *c, const WORD *v)
{
    WORD i = v[0], r = v[1], carry = v[2], borrow = v[3];
    /* channel_to_dim1: the main word 2^2n + 2^n i + r plus the sparse word */
    WORD x = L(mod_m)(c, (c->m - 1) + (i << c->n) + r + ((carry << c->n) | (borrow ^ 1)),
                      2 * c->n + 2);
    WORD zflag = x == 0, bits = zflag ? 0 : x - 1;  /* dim1_encode */
    WORD xr = bits & c->mask, xi = bits >> c->n;    /* to_channel_operand */
    WORD f[4] = {r, borrow, i, carry};
    return L(mod_m)(c, xr + (1 - zflag) + (xi << c->n), 2 * c->n + 2) != L(phi)(c, f);
}

/* --- exhaustive case loop ---------------------------------------------------- */

/* Whether exhaustive case u of the current run is a mismatch: field f from g
 * on is v[f] + (u >> sh[f] & mk[f]), each field before g holds v[f]. */
INLINE int L(case_at)(const struct L(ctx) *c, L(bad_fn) *bad, int nf, int g, const WORD *v,
                      const WORD *sh, const WORD *mk, WORD u)
{
    WORD w[MAX_FIELDS];
    for (int f = 0; f < nf; f++)
        w[f] = f < g ? v[f] : v[f] + (u >> sh[f] & mk[f]);
    return bad(c, w);
}

/* Runs exhaustive cases [lo, hi) of spec (see run_cases).  The sweep splits
 * the fields at g = split_of(spec): fields g.. decode from one counter u by
 * shift and mask, and the fields before g step as an odometer each time u
 * wraps.  It runs blocks of BLOCK cases within one run of u: one counted
 * loop, which vectorises, sums the block's mismatches, and only a block that
 * holds the sweep's first mismatch is scanned again, with the same
 * arithmetic, for its index.  The spans' product is below 2^63 (ARM keeps it
 * so: see indexable), and on 32-bit lanes u's span is at most 2^32 (see
 * lanes_32), so each case's u + j fits a lane. */
INLINE void L(run_exhaustive)(const struct L(ctx) *c, L(bad_fn) *bad, const struct field *spec,
                              int nf, uint64_t lo, uint64_t hi, int64_t *out)
{
    WORD v[MAX_FIELDS], sh[MAX_FIELDS], mk[MAX_FIELDS], j, u0;
    uint64_t sp[MAX_FIELDS], wrap = 1, idx, u, failures = 0;
    int64_t first = -1;
    int f, g = split_of(spec, nf);
#pragma GCC unroll 8
    for (f = 0; f < nf; f++)
        sp[f] = span_of(spec[f].span, c->n, c->p);
    for (f = nf - 1; f >= g; f--) {
        sh[f] = (WORD)__builtin_ctzll(wrap);
        mk[f] = f > g ? (WORD)(sp[f] - 1) : (WORD)~(WORD)0;
        v[f] = spec[f].base;
        wrap *= sp[f];
    }
    u = lo % wrap;
    for (idx = lo / wrap, f = g - 1; f >= 0; f--) {
        v[f] = (WORD)(spec[f].base + idx % sp[f]);
        idx /= sp[f];
    }
    for (uint64_t k = lo, len; k < hi; k += len) {
        unsigned mismatches = 0;
        len = hi - k < wrap - u ? hi - k : wrap - u;
        len = len < BLOCK ? len : BLOCK;
        u0 = (WORD)u;
        for (j = 0; j < (WORD)len; j++)
            mismatches += (unsigned)L(case_at)(c, bad, nf, g, v, sh, mk, u0 + j);
        if (mismatches && failures == 0) {
            for (j = 0; !L(case_at)(c, bad, nf, g, v, sh, mk, u0 + j); j++)
                ;
            first = (int64_t)(k + j);
        }
        failures += mismatches;
        if ((u += len) == wrap) {
            u = 0;
            for (f = g - 1; f >= 0 && ++v[f] == spec[f].base + sp[f]; f--)
                v[f] = spec[f].base;
        }
    }
    out[0] = (int64_t)failures;
    out[1] = first;
}

#endif  /* WORD */
