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
 */

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

/* Per-sweep constants; the roundtrip ones come from its kernel arguments.
 * lanes: the case runs in a vectorised block loop, so its remainders fold. */
struct ctx {
    int n, p, lanes;
    uint64_t m, mask;              /* 2^2n + 1, 2^n - 1 */
    uint64_t m2, m3, tail;         /* 2^n - 1, 2^n + 1, m2*m3*m = 2^4n - 1 */
    uint64_t mu1, mu2, mu3, off;   /* New-CRT coefficients; -2^(n+p) sum(mu) mod tail */
};

INLINE struct ctx ctx_make(int n, const int64_t *args)
{
    struct ctx c;
    c.n = n;
    c.lanes = 0;
    c.p = (int)args[0];
    c.m = ((uint64_t)1 << (2 * n)) + 1;
    c.mask = ((uint64_t)1 << n) - 1;
    c.m2 = c.mask;
    c.m3 = c.mask + 2;
    c.tail = c.m2 * c.m3 * c.m;
    c.mu1 = (uint64_t)args[1];
    c.mu2 = (uint64_t)args[2];
    c.mu3 = (uint64_t)args[3];
    c.off = (uint64_t)args[4];
    return c;
}

/* a % c->m for a < 2^bits, where bits follows from n and the unit's built-in
 * spec, the only one a kernel runs.  In a width arm n, and so bits, is a
 * constant and the tests fold away.  The block loop (lanes) reduces in ways
 * that vectorise, as a 64-bit remainder does not: below 2^32 by a 32-bit
 * remainder, below 2^64 (and 2^6n) by folding end-around (2^2n = -1 mod m) to
 * below 3m and subtracting m at most twice.  A scalar loop takes a 64-bit
 * remainder, because gcc turns some 32-bit ones into longer shift-add chains,
 * and u128 only for an a past 64 bits. */
INLINE uint64_t mod_m(const struct ctx *c, u128 a, int bits)
{
    int w = 2 * c->n;
    if (c->lanes && bits <= 32)
        return (uint32_t)a % (uint32_t)c->m;
    if (c->lanes && bits <= 64 && bits <= 3 * w) {
        uint64_t low = (uint64_t)a, wmask = c->m - 2;
        uint64_t t = (low & wmask) + (bits > 2 * w ? low >> (2 * w) : 0) + c->m
                     - ((low >> w) & wmask);
        t -= 2 * c->m & -(uint64_t)(t >= 2 * c->m);
        return t - (c->m & -(uint64_t)(t >= c->m));
    }
    if (bits <= 64)
        return (uint64_t)a % c->m;
    return a >> 64 ? (uint64_t)(a % c->m) : (uint64_t)a % c->m;
}

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

/* x y mod c->m for x, y <= 2^2n, as the multiplier and checkpoint specs'
 * operands are, so the product is below 2^(4n+1).  Where random sweeps run
 * in blocks, the width arm of n = 16, where the product passes 64 bits,
 * splits each operand at 2^2n = -1 (mod m) into x = xh 2^2n + xl, xh a bit:
 * x y = xl yl - xh yl - yh xl + xh yh (mod m) needs only 64-bit words and
 * 32-bit vector multiplies.  Past n = 16 xl yl passes 64 bits too.
 * Elsewhere the u128 remainder, exact as well, stays: in a scalar loop the
 * split read 0.91x. */
INLINE uint64_t mul_mod_m(const struct ctx *c, uint64_t x, uint64_t y)
{
    int w = 2 * c->n;
    if (RANDOM_BLOCKS && 4 * c->n + 1 > 64 && 2 * w <= 64) {
        uint64_t wmask = c->m - 2, xh = x >> w, yh = y >> w, xl = x & wmask, yl = y & wmask;
        return mod_m(c, mod_m(c, xl * yl, 64) + 2 * c->m - (yl & -xh) - (xl & -yh) + (xh & yh),
                     w + 2);
    }
    return mod_m(c, (u128)x * y, 4 * c->n + 1);
}

/* --- counter-based PRNG (splitmix64) ------------------------------------- */

INLINE uint64_t mix64(uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9u;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBu;
    return x ^ (x >> 31);
}

/* --- dataflow --------------------------------------------------------------- */

INLINE void split_fresh(int n, uint64_t x, uint64_t *xr, uint64_t *xi, uint64_t *xz)
{
    if (x == 0) {
        *xr = *xi = 0;
        *xz = 1;
    } else {
        *xr = (x - 1) & (((uint64_t)1 << n) - 1);
        *xi = (x - 1) >> n;
        *xz = 0;
    }
}

INLINE void add4(int n, uint64_t xr, uint64_t xi, uint64_t xz, uint64_t yr, uint64_t yb,
              uint64_t yi, uint64_t yc, uint64_t *out)
{
    uint64_t mask = ((uint64_t)1 << n) - 1, xnz = xz ^ 1;
    uint64_t sr = xr + yr + ((yb ^ 1) & xnz);
    uint64_t si = xi + yi + (yc & xnz);
    out[0] = sr & mask;
    out[1] = (si >> n) | (yb & xz);
    out[2] = si & mask;
    out[3] = (sr >> n) | (yc & xz);
}

/* (4;2) compressor: returns u; *vh, *cn, *vn take the other outputs. */
INLINE uint64_t compress42(int n, uint64_t a, uint64_t b, uint64_t c, uint64_t d,
                        uint64_t t_in, uint64_t v_in, uint64_t *vh, uint64_t *cn,
                        uint64_t *vn)
{
    uint64_t mask = ((uint64_t)1 << n) - 1;
    uint64_t p = a ^ b ^ c;
    uint64_t t = (((a & b) | (a & c) | (b & c)) << 1) | t_in;
    uint64_t vw = ((((p & d) | (p & t) | (d & t)) & mask) << 1) | v_in;
    *vh = vw & mask;
    *cn = t >> n;
    *vn = vw >> n;
    return (p ^ d ^ t) & mask;
}

INLINE void mul4(int n, uint64_t xr, uint64_t xi, uint64_t yr, uint64_t yi, uint64_t *out)
{
    uint64_t mask = ((uint64_t)1 << n) - 1;
    uint64_t p1 = (1 + xr) * (1 + yr), p2 = (1 + xr) * yi;
    uint64_t p3 = xi * (1 + yr), p4 = xi * yi;
    uint64_t c = p1 >> (2 * n), vh, cn, vn, vh2, cn2, vn2;
    uint64_t u = compress42(n, p1 & mask, (p4 & mask) ^ mask, (p2 >> n) ^ mask,
                            (p3 >> n) ^ mask, c ^ 1, 0, &vh, &cn, &vn);
    uint64_t u2 = compress42(n, (p1 >> n) & mask, p2 & mask, p3 & mask,
                             (p4 >> n) ^ mask, cn, vn, &vh2, &cn2, &vn2);
    uint64_t b1 = vh | (vn2 ^ 1), d1 = cn2 ^ 1, cst = mask ^ 1;
    uint64_t w = u ^ b1 ^ d1;
    uint64_t carry = ((u & b1) | (u & d1) | (b1 & d1)) << 1;
    uint64_t w2 = u2 ^ vh2 ^ cst;
    uint64_t carry2 = ((u2 & vh2) | (u2 & cst) | (vh2 & cst)) << 1;
    uint64_t z = (carry & mask) | ((carry2 >> n) ^ 1);
    uint64_t z2 = (carry2 & mask) | (carry >> n);
    uint64_t sr = w + z + 1, si = w2 + z2;
    out[0] = sr & mask;
    out[1] = si >> n;
    out[2] = si & mask;
    out[3] = sr >> n;
}

/* (r - borrow + 2^n (i + carry)) mod m of fields (r, borrow, i, carry), each
 * below 2^n (borrow up to m). */
INLINE uint64_t phi(const struct ctx *c, const uint64_t *f)
{
    return mod_m(c, f[0] + ((f[2] + f[3]) << c->n) + c->m - f[1], 2 * c->n + 2);
}

/* Modulo-(2^2n + 1) carry-save stage over (z2, ~z1, z0): returns u; *v takes
 * the carry word with its position-2n carry folded in as a complemented LSB. */
INLINE uint64_t csa22n1(int n, uint64_t z2, uint64_t z1, uint64_t z0, uint64_t *v)
{
    uint64_t wmask = ((uint64_t)1 << (2 * n)) - 1, z1b = z1 ^ wmask;
    uint64_t cw = ((z2 & z1b) | (z2 & z0) | (z1b & z0)) << 1;
    *v = (cw & wmask) | ((cw >> (2 * n)) ^ 1);
    return z2 ^ z1b ^ z0;
}

INLINE uint64_t forward_dim1(int n, uint64_t m, uint64_t z)
{
    uint64_t wmask = ((uint64_t)1 << (2 * n)) - 1, v;
    uint64_t t = csa22n1(n, z >> (4 * n), (z >> (2 * n)) & wmask, z & wmask, &v) + v;
    t -= m & -(uint64_t)(t >= m);  /* no branch: t >= m is a coin toss on random inputs */
    return (t & wmask) + 1 - (t >> (2 * n));  /* flagged: bits + (1 - zflag) */
}

/* --- case functions: field values in spec order, nonzero on a mismatch ----- */

INLINE int adder_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t x = v[0], i = v[1], r = v[2], carry = v[3], borrow = v[4];
    uint64_t xr, xi, xz, f[4];
    split_fresh(c->n, x, &xr, &xi, &xz);
    add4(c->n, xr, xi, xz, r, borrow, i, carry, f);
    /* x <= 2^2n and i + carry <= 2^n keep the sum below 3 2^2n + 2^n */
    return phi(c, f) != mod_m(c, x + r + ((i + carry) << c->n) + c->m - borrow, 2 * c->n + 2);
}

INLINE int multiplier_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t x = v[0], y = v[1], xr, xi, xz, yr, yi, yz, f[4];
    split_fresh(c->n, x, &xr, &xi, &xz);
    split_fresh(c->n, y, &yr, &yi, &yz);
    mul4(c->n, xr, xi, yr, yi, f);
    /* a zero flag gates the product to canonical zero */
    return (phi(c, f) & ((xz | yz) - 1)) != mul_mod_m(c, x, y);
}

INLINE int checkpoint_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t x = v[0], y = v[1], xr, xi, xz, yr, yi, yz, mask = c->mask;
    split_fresh(c->n, x, &xr, &xi, &xz);
    split_fresh(c->n, y, &yr, &yi, &yz);
    uint64_t p1 = (1 + xr) * (1 + yr), p2 = (1 + xr) * yi;
    uint64_t p3 = xi * (1 + yr), p4 = xi * yi;
    uint64_t r_sum = (p1 & mask) + ((p4 & mask) ^ mask) + ((p2 >> c->n) ^ mask)
                     + ((p3 >> c->n) ^ mask) + ((p1 >> (2 * c->n)) ^ 1) + 3;
    uint64_t i_sum2 = ((p1 >> c->n) & mask) + (p2 & mask) + (p3 & mask)
                      + ((p4 >> c->n) ^ mask);  /* i_sum + 2 */
    /* r_sum + 2^n i_sum + m, which m > 2^(n+1) keeps nonnegative */
    uint64_t t = mod_m(c, r_sum + (i_sum2 << c->n) + c->m - ((uint64_t)2 << c->n),
                       2 * c->n + 4);
    return t != mul_mod_m(c, x, y);
}

INLINE int forward_bad(const struct ctx *c, const uint64_t *v)
{
    return forward_dim1(c->n, c->m, v[0]) != mod_m(c, v[0], 5 * c->n);
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

/* x1..x4 are z's residues by 2^(n+p), m2, m3 and m.  The New-CRT sum adds
 * 2^(n+p) to each difference, which keeps it unsigned, and off takes the
 * added 2^(n+p) sum(mu) away again modulo tail = 2^4n - 1.  The block loop
 * reduces by Mersenne folds: z to y = z mod tail, y to x4 by mod_m and, once
 * folded at 2n bits (2^2n = 1 mod m2 m3) to below 2^32, to x2 and x3 by
 * 32-bit remainders; the sum to its remainder by tail.  A scalar loop
 * divides. */
INLINE int roundtrip_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t z = v[0], w = (uint64_t)1 << (c->n + c->p), x1 = z & (w - 1), x2, x3, x4, s;
    int q = 4 * c->n;
    if (c->lanes) {
        uint64_t y = mod_mersenne(z, q, 63);
        uint32_t y2 = (uint32_t)((y & ONES(2 * c->n)) + (y >> (2 * c->n)));
        x2 = y2 % (uint32_t)c->m2;
        x3 = y2 % (uint32_t)c->m3;
        x4 = mod_m(c, y, q);
    } else {
        x2 = z % c->m2;
        x3 = z % c->m3;
        x4 = z % c->m;
    }
    s = c->mu1 * (x2 + w - x1) + c->mu2 * (x3 + w - x2) + c->mu3 * (x4 + w - x3) + c->off;
    s = c->lanes ? mod_mersenne(s, q, 64) : s % c->tail;
    return x1 + w * s != z;
}

INLINE int compressor_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t vh, cn, vn;
    uint64_t u = compress42(c->n, v[0], v[1], v[2], v[3], v[4], v[5], &vh, &cn, &vn);
    return u + vh + ((cn + vn) << c->n) != v[0] + v[1] + v[2] + v[3] + v[4] + v[5];
}

INLINE int csa_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t z2 = v[0], z1 = v[1], z0 = v[2], wmask = c->m - 2, w;
    uint64_t u = csa22n1(c->n, z2, z1, z0, &w);
    /* z2 < 2^n and z1, z0 < 2^2n keep both sums below 2^(2n+2) */
    return mod_m(c, u + w, 2 * c->n + 2) != mod_m(c, z2 + (z1 ^ wmask) + z0 + 1, 2 * c->n + 2);
}

INLINE int normalize_bad(const struct ctx *c, const uint64_t *v)
{
    uint64_t i = v[0], r = v[1], carry = v[2], borrow = v[3];
    /* channel_to_dim1: the main word 2^2n + 2^n i + r plus the sparse word */
    uint64_t x = mod_m(c, (c->m - 1) + (i << c->n) + r + ((carry << c->n) | (borrow ^ 1)),
                       2 * c->n + 2);
    uint64_t zflag = x == 0, bits = zflag ? 0 : x - 1;  /* dim1_encode */
    uint64_t xr = bits & c->mask, xi = bits >> c->n;    /* to_channel_operand */
    uint64_t f[4] = {r, borrow, i, carry};
    return mod_m(c, xr + (1 - zflag) + (xi << c->n), 2 * c->n + 2) != phi(c, f);
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

/* The span of kind k at width n and exponent p: 2^(n+p) (2^4n - 1) for DR,
 * the dynamic range of f_set(n, p).  Only m and DR are not powers of two. */
INLINE uint64_t span_of(int k, int n, int p)
{
    return k == S_2 ? 2 : k == S_N ? (uint64_t)1 << n
           : k == S_DR ? ONES(4 * n) << (n + p) : ((uint64_t)1 << 2 * n) + (k == S_M);
}

/* Whether spec at n, p = 0 has fewer than 2^63 cases, the most run_cases
 * indexes (roundtrip_fits keeps roundtrip's so at any p): a saturating product,
 * written out for six fields, as gcc would fold a loop only in its late passes. */
#define TIMES(f) cases *= cases >> 63 || (f) >= nf ? 1 : span_of(spec[(f) % nf].span, n, 0)
INLINE int indexable(const struct field *spec, int nf, int n)
{
    u128 cases = 1;
    TIMES(0), TIMES(1), TIMES(2), TIMES(3), TIMES(4), TIMES(5);
    return !(cases >> 63);
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

/* --- case loop --------------------------------------------------------------- */

/* Whether exhaustive case u of the current run is a mismatch: field f from g
 * on is v[f] + (u >> sh[f] & mk[f]), each field before g holds v[f]. */
INLINE int case_at(const struct ctx *c, int (*bad)(const struct ctx *, const uint64_t *),
                   int nf, int g, const uint64_t *v, const uint64_t *sh, const uint64_t *mk,
                   uint64_t u)
{
    uint64_t w[MAX_FIELDS];
    for (int f = 0; f < nf; f++)
        w[f] = f < g ? v[f] : v[f] + (u >> sh[f] & mk[f]);
    return bad(c, w);
}

/* d mod the span of kind k, for a draw d.  Span m goes through mod_m, which
 * in a block loop folds from n = 11 on.  There span 2^a (2^4n - 1), a = n +
 * p, keeps d's low a bits and folds the rest, below 2^(64 - n), by 2^4n - 1:
 * 64 - n, unlike 64 - a, is a constant in a width arm, so the chunk loop
 * unrolls (with 64 - a, forward n = 12 random read 0.19x).  A power of two
 * masks; other remainders divide. */
INLINE uint64_t draw_mod(const struct ctx *c, int k, uint64_t d)
{
    int a = c->n + c->p, q = 4 * c->n;
    uint64_t span = span_of(k, c->n, c->p);
    if (k == S_M)
        return mod_m(c, d, 64);
    if (k == S_DR)
        return c->lanes ? (d & ONES(a)) | mod_mersenne(d >> a, q, 64 - c->n) << a : d % span;
    return d & (span - 1);
}

/* Whether random case k of the current run is a mismatch: field f takes the
 * value base + draw(seed, SLOTS k + slot) mod span of its spec entry, the
 * draw keyed by key[f]. */
INLINE int draw_at(const struct ctx *c, int (*bad)(const struct ctx *, const uint64_t *),
                   const struct field *spec, int nf, const uint64_t *key, uint64_t k)
{
    uint64_t w[MAX_FIELDS];
#pragma GCC unroll 8
    for (int f = 0; f < nf; f++)
        w[f] = spec[f].base + draw_mod(c, spec[f].span, mix64(key[f] + k * (SLOTS * GOLDEN)));
    return bad(c, w);
}

/* Runs cases [lo, hi) of spec, a table of nf fields; out gets (failures,
 * first failing index or -1).  In a width arm the table is static const and
 * nf a constant, so every read of spec folds, and with it each field's span,
 * base and kind tests and the exhaustive decode's shifts and masks.  gcc
 * folds them before it vectorises only in a field loop it has unrolled, so
 * the loops that read kinds say #pragma GCC unroll 8 (MAX_FIELDS): without
 * it, adder n = 4 exhaustive read 0.42x and compressor n = 4 0.35x, their
 * block loops no longer vectorised.
 *
 * An exhaustive sweep splits the fields at g, the last whose span is m or
 * DR (or 0): fields g.. decode from one counter u by shift and mask, and the
 * fields before g step as an odometer each time u wraps.  It runs blocks of
 * BLOCK cases within one run of u: one counted loop, which vectorises, sums
 * the block's mismatches, and only a block that holds the sweep's first
 * mismatch is scanned again, with the same arithmetic, for its index.  The
 * spans' product is below 2^63 (ARM keeps it so: see indexable).
 *
 * Where the target has AVX2, a random sweep runs blocks of BLOCK cases from
 * lo the same way, each of BLOCK counted steps that mask off the cases past
 * hi: a fixed trip count leaves gcc no vector epilogue to emit per loop.
 * Elsewhere, where a 64-bit vector multiply costs more than it saves, it
 * runs one case at a time: forcing the block loop on such a target read
 * 0.76-0.95x on five random units.  Both loops draw each case through
 * draw_at; the block loop folds its remainders, the other divides. */
INLINE void run_cases(const struct ctx *c, int (*bad)(const struct ctx *, const uint64_t *),
                      const struct field *spec, int nf, int random, uint64_t seed, uint64_t lo,
                      uint64_t hi, int64_t *out)
{
    uint64_t v[MAX_FIELDS], key[MAX_FIELDS], failures = 0;
    int64_t first = -1;
    int f;
    struct ctx cl = *c;  /* for the block loops, which fold */
    cl.lanes = 1;
    for (f = 0; f < nf; f++)
        key[f] = seed + (spec[f].slot + 1u) * GOLDEN;  /* draw(seed, SLOTS k + slot) at k = 0 */
    /* Where random sweeps run in blocks, the hint lays them out after the
     * exhaustive loops.  In line, they move the exhaustive loops' register
     * allocation: without the hint, multiplier n = 5 exhaustive read 0.84x
     * in an in-process A/B (0 of 11 rounds won).  The scalar loop of other
     * targets read up to 0.88x with it. */
    if (RANDOM_BLOCKS ? __builtin_expect(random, 0) : random) {
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
            if (draw_at(c, bad, spec, nf, key, k) && failures++ == 0)
                first = (int64_t)k;
#endif
    } else {
        uint64_t sh[MAX_FIELDS], mk[MAX_FIELDS], sp[MAX_FIELDS], wrap = 1, idx, u, j;
        int g = 0;
#pragma GCC unroll 8
        for (f = 0; f < nf; f++) {
            sp[f] = span_of(spec[f].span, c->n, c->p);
            if (spec[f].span == S_M || spec[f].span == S_DR)
                g = f;
        }
        for (f = nf - 1; f >= g; f--) {
            sh[f] = (uint64_t)__builtin_ctzll(wrap);
            mk[f] = f > g ? sp[f] - 1 : ~(uint64_t)0;
            v[f] = spec[f].base;
            wrap *= sp[f];
        }
        u = lo % wrap;
        for (idx = lo / wrap, f = g - 1; f >= 0; f--) {
            v[f] = spec[f].base + idx % sp[f];
            idx /= sp[f];
        }
        for (uint64_t k = lo, len; k < hi; k += len) {
            unsigned mismatches = 0;
            len = hi - k < wrap - u ? hi - k : wrap - u;
            len = len < BLOCK ? len : BLOCK;
            for (j = 0; j < len; j++)
                mismatches += (unsigned)case_at(&cl, bad, nf, g, v, sh, mk, u + j);
            if (mismatches && failures == 0) {
                for (j = 0; !case_at(&cl, bad, nf, g, v, sh, mk, u + j); j++)
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
    }
    out[0] = (int64_t)failures;
    out[1] = first;
}

/* One arm of the width switch: the case loop with n, and so every modulus,
 * mask and shift derived from it, a compile-time constant, which turns each
 * % by a modulus into a multiply and a shift.  An arm where fits(k, 0) fails
 * is dropped before inlining; one whose spec is not indexable runs only random
 * sweeps (its exhaustive loop is dropped) and declines exhaustive ones. */
#define ARM(k, unit, fits)                                                          \
    case k:                                                                         \
        if (fits(k, 0) && (random || indexable(unit##_spec, ARITY(unit), k))) {     \
            struct ctx ck = ctx_make(k, args);                                      \
            run_cases(&ck, unit##_bad, unit##_spec, ARITY(unit),                    \
                      indexable(unit##_spec, ARITY(unit), k) ? random : 1, seed,    \
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
 * compiled.  A spec it runs goes to the width arm of n. */
#define SWEEP(unit, fits)                                                           \
    int sweep_##unit(int n, const int64_t *args, int nf, const uint64_t *span,      \
                     const uint64_t *base, const uint64_t *slot, int random,        \
                     uint64_t seed, uint64_t lo, uint64_t hi, int64_t *out)         \
    {                                                                               \
        if (n < 2 || n > 31 || !fits(n, args[0]) || nf != ARITY(unit)              \
            || !spec_is(unit##_spec, nf, n, (int)args[0], span, base, slot))        \
            return 1;                                                               \
        switch (n) {                                                                \
            ARMS(unit, fits)                                                        \
        }                                                                           \
        return 1;                                                                   \
    }

SWEEP(adder, P_IS_0)
SWEEP(multiplier, P_IS_0)
SWEEP(checkpoint, CHECKPOINT_FITS)  /* i_sum 2^n fits in 63 bits */
SWEEP(forward, FORWARD_FITS)        /* 5n-bit inputs fit in 63 bits */
SWEEP(roundtrip, roundtrip_fits)
SWEEP(compressor, P_IS_0)
SWEEP(csa, P_IS_0)
SWEEP(normalize, P_IS_0)

/* --- exported helpers (parity checks against the Python dataflow) ----------- */

uint64_t draw(uint64_t seed, uint64_t counter)
{
    return mix64(seed + (counter + 1) * GOLDEN);
}

void add_fields(int n, uint64_t xr, uint64_t xi, uint64_t xz, uint64_t yr, uint64_t yb,
                uint64_t yi, uint64_t yc, uint64_t *out)
{
    add4(n, xr, xi, xz, yr, yb, yi, yc, out);
}

void mul_fields(int n, uint64_t xr, uint64_t xi, uint64_t yr, uint64_t yi, uint64_t *out)
{
    mul4(n, xr, xi, yr, yi, out);
}
