/*
 * Compiled core of the cluster engines: the vectorized engine's cycle
 * loop (tc_run) and the data plane's MAC write-back (tc_mac).  Both are
 * built into one library from this one source (repro.cluster.timing_core).
 *
 * tc_run is the per-cycle loop of repro.cluster.vecsim: the scalar
 * engine's timing model (repro.cluster.engine.scalar_loop, which steps a
 * repro.core.ntx.NtxStepper per NTX) over precomputed bank ids and
 * integer state; hot-path integer divisions become multiplications and
 * compares (all operands are non-negative there).  It covers the per-NTX
 * phase machine (idle -> setup -> run -> drain), the operand-FIFO
 * run-ahead window, one retirement per cycle, write-back backpressure,
 * background DMA beats, rotating-priority per-bank arbitration and the
 * shared grant of one address to every port of an NTX presenting it.
 * The engines refuse commands that read their own earlier stores.  On
 * every input its counters equal the scalar loop's; tests/test_vecsim.py
 * fuzzes the two against each other.
 *
 * Inputs (all owned by the caller):
 *   cfg          machine and run parameters;
 *   queue_start  num_ntx + 1 offsets: NTX i runs commands
 *                [queue_start[i], queue_start[i + 1]) in order;
 *   commands     TC_COLUMNS int64 values per command (see the enum);
 *                a negative stream offset means the port is absent;
 *   streams      every command's per-port bank ids and init positions,
 *                concatenated (and read addresses, as int32, where read
 *                ports share an address).
 * Outputs: per_ntx[i] / per_ntx[num_ntx + i] receive NTX i's active /
 * stall cycles, *out the run counters.
 *
 * Returns TC_DONE, TC_EXCEEDED (max_cycles reached before every command
 * finished; outputs are then unspecified) or TC_NO_MEMORY.
 *
 * tc_mac is documented at its definition below.
 *
 * Build: cc -O2 -ftree-vectorize -ffp-contract=off -shared -fPIC (no
 * -ffast-math: the DMA accumulator's double arithmetic must round
 * exactly like Python's floats, and the MAC certificate needs every
 * double operation rounded as written).
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { TC_DONE = 0, TC_EXCEEDED = 1, TC_NO_MEMORY = -1 };

enum { IDLE = 0, SETUP = 1, RUN = 2 };

/* Columns of one row of the per-command table. */
enum {
    COL_TOTAL,          /* innermost iterations (micro-ops) */
    COL_PERIOD_INIT,    /* iterations per accumulator init */
    COL_PERIOD_STORE,   /* iterations per write-back */
    COL_NUM_INIT_READS, /* init reads from AGU2 (0 without an init port) */
    COL_NUM_STORES,     /* write-backs (0 without a store port) */
    COL_P0,             /* offset of the read-port-0 bank ids, or -1 */
    COL_P1,             /* offset of the read-port-1 bank ids, or -1 */
    COL_INIT,           /* offset of the init-read bank ids, or -1 */
    COL_INIT_TS,        /* offset of the init-read iteration indices */
    COL_STORE,          /* offset of the store bank ids, or -1 */
    COL_ADDR0,          /* offset of the read-port-0 addresses, or -1 */
    COL_ADDR1,          /* offset of the read-port-1 addresses, or -1 */
    COL_INIT_ADDR,      /* offset of the init-read addresses, or -1 */
    TC_COLUMNS
};

typedef struct {
    int64_t num_ntx;
    int64_t num_banks;
    int64_t num_masters;
    int64_t window;        /* operand FIFO depth */
    int64_t wb_depth;      /* write-back FIFO depth */
    int64_t setup_cycles;
    int64_t drain_cycles;
    int64_t stagger;       /* start delay of NTX i is i * stagger */
    int64_t max_cycles;
    int64_t tcdm_words;
    int64_t rr_offset;     /* round-robin offset carried by the interconnect */
    double dma_rate;       /* background DMA requests per cycle */
} tc_config;

typedef struct {
    int64_t cycles;
    int64_t requests;
    int64_t grants;
    int64_t conflicts;
    int64_t conflict_cycles;
    int64_t rr_offset;
} tc_counters;

typedef struct {
    int64_t next_command;
    int64_t end_command;
    int64_t start_cycle;
    int phase;
    int64_t setup_left;
    int64_t drain_left;
    const int64_t *plan;
    const int32_t *p0;
    const int32_t *p1;
    const int32_t *init;
    const int32_t *init_ts;
    const int32_t *store;
    const int32_t *addr0, *addr1, *init_addr; /* where read ports share */
    int shared;
    /* Later ports presenting an earlier port's address this cycle, served
     * by its grant (one master's requests tie, the first presented wins):
     * bit 0 p1 after p0, bit 1 init after p0, bit 2 init after p1. */
    int follow;
    int64_t pos0, pos1, rpos, wpos, retired;
    int64_t active, stall;
} ntx_state;

/* Python's floor modulo: never negative for n > 0. */
static int64_t py_mod(int64_t x, int64_t n)
{
    return ((x % n) + n) % n;
}

/* Python's (master - rr) % n for rr in [0, n), without a division when
 * master is in [0, n) as well. */
static int64_t priority(int64_t master, int64_t rr, int64_t n)
{
    int64_t p = master - rr;
    if (p < 0)
        p += n;
    return p >= 0 && p < n ? p : py_mod(p, n);
}

static const int32_t *port(const int32_t *streams, int64_t offset)
{
    return offset < 0 ? NULL : streams + offset;
}

int tc_run(const tc_config *cfg, const int64_t *queue_start,
           const int64_t *commands, const int32_t *streams,
           int64_t *per_ntx, tc_counters *out)
{
    const int64_t num_ntx = cfg->num_ntx;
    const int64_t num_banks = cfg->num_banks;
    const int64_t num_masters = cfg->num_masters;
    const int64_t free_prio = num_masters + 1;
    const int64_t dma_master = num_ntx;
    ntx_state *states = calloc((size_t)(num_ntx > 0 ? num_ntx : 1), sizeof *states);
    int64_t *best_prio = malloc((size_t)num_banks * sizeof *best_prio);
    int64_t *best_slot = malloc((size_t)num_banks * sizeof *best_slot);
    int64_t *touched = malloc((size_t)num_banks * sizeof *touched);
    int64_t num_touched = 0;
    int64_t rr = py_mod(cfg->rr_offset, num_masters);
    int64_t requests = 0, grants = 0, conflicts = 0, conflict_cycles = 0;
    double dma_accumulator = 0.0;
    int64_t dma_word = 0;
    int64_t cycles = 0;
    int64_t i;
    int status = TC_DONE;

    if (!states || !best_prio || !best_slot || !touched) {
        status = TC_NO_MEMORY;
        goto done;
    }
    for (i = 0; i < num_banks; i++)
        best_prio[i] = free_prio;
    for (i = 0; i < num_ntx; i++) {
        states[i].next_command = queue_start[i];
        states[i].end_command = queue_start[i + 1];
        states[i].start_cycle = i * cfg->stagger;
        states[i].phase = IDLE;
    }

    for (;;) {
        int any_busy = 0;
        int64_t num_requests = 0;

        if (cycles >= cfg->max_cycles) {
            status = TC_EXCEEDED;
            goto done;
        }

        /* Requests, arbitrated as they are presented: within a bank the
         * first request of the lowest rotating priority wins. */
#define PRESENT(bank_, slot_, master_)                                  \
        do {                                                            \
            int64_t b_ = (bank_);                                       \
            int64_t p_ = priority((master_), rr, num_masters);          \
            num_requests++;                                             \
            if (best_prio[b_] > p_) {                                   \
                if (best_prio[b_] > num_masters)                        \
                    touched[num_touched++] = b_;                        \
                best_prio[b_] = p_;                                     \
                best_slot[b_] = (slot_);                                \
            }                                                           \
        } while (0)

        for (i = 0; i < num_ntx; i++) {
            ntx_state *s = &states[i];
            const int64_t *plan;
            int64_t limit, slot_base;
            int at0, at1, at_init;

            if (s->phase == IDLE) {
                if (s->next_command >= s->end_command)
                    continue;
                if (cycles < s->start_cycle) {
                    any_busy = 1; /* staggered start still pending */
                    continue;
                }
                plan = commands + s->next_command * TC_COLUMNS;
                s->next_command++;
                s->plan = plan;
                s->p0 = port(streams, plan[COL_P0]);
                s->p1 = port(streams, plan[COL_P1]);
                s->init = port(streams, plan[COL_INIT]);
                s->init_ts = port(streams, plan[COL_INIT_TS]);
                s->store = port(streams, plan[COL_STORE]);
                s->addr0 = port(streams, plan[COL_ADDR0]);
                s->addr1 = port(streams, plan[COL_ADDR1]);
                s->init_addr = port(streams, plan[COL_INIT_ADDR]);
                s->shared = s->addr0 || s->addr1 || s->init_addr;
                s->follow = 0;
                /* A zero-cycle setup phase starts streaming immediately. */
                s->phase = cfg->setup_cycles > 0 ? SETUP : RUN;
                s->setup_left = cfg->setup_cycles;
                s->pos0 = s->pos1 = s->rpos = s->wpos = 0;
                s->retired = 0;
            }
            any_busy = 1;
            if (s->phase != RUN)
                continue;

            plan = s->plan;
            limit = s->retired + cfg->window;
            slot_base = i << 2;
            at0 = s->p0 && s->pos0 < plan[COL_TOTAL] && s->pos0 < limit;
            at1 = s->p1 && s->pos1 < plan[COL_TOTAL] && s->pos1 < limit;
            at_init = s->init && s->rpos < plan[COL_NUM_INIT_READS]
                      && s->init_ts[s->rpos] < limit;
            if (at0)
                PRESENT(s->p0[s->pos0], slot_base, i);
            if (at1)
                PRESENT(s->p1[s->pos1], slot_base | 1, i);
            if (at_init) {
                PRESENT(s->init[s->rpos], slot_base | 2, i);
            } else if (plan[COL_NUM_STORES] > 0) {
                int64_t retired = s->retired < plan[COL_TOTAL] ? s->retired
                                                               : plan[COL_TOTAL];
                /* retired // period_store > wpos */
                if (retired >= (s->wpos + 1) * plan[COL_PERIOD_STORE])
                    PRESENT(s->store[s->wpos], slot_base | 3, i);
            }
            if (s->shared) {
                int p1_p0 = at0 && at1 && s->addr0[s->pos0] == s->addr1[s->pos1];
                int init_p0 = at_init && at0 && s->addr0[s->pos0] == s->init_addr[s->rpos];
                int init_p1 = at_init && at1 && !init_p0
                              && s->addr1[s->pos1] == s->init_addr[s->rpos];
                s->follow = p1_p0 | init_p0 << 1 | init_p1 << 2;
            }
        }

        if (!any_busy)
            break;

        /* Background DMA traffic: fire-and-forget requests. */
        dma_accumulator += cfg->dma_rate;
        while (dma_accumulator >= 1.0) {
            PRESENT(dma_word % num_banks, -1, dma_master);
            dma_word = dma_word + 1 == cfg->tcdm_words ? 0 : dma_word + 1;
            dma_accumulator -= 1.0;
        }
#undef PRESENT

        /* At most one grant per bank. */
        requests += num_requests;
        if (num_requests) {
            grants += num_touched;
            if (num_touched != num_requests) {
                conflicts += num_requests - num_touched;
                conflict_cycles++;
            }
            for (i = 0; i < num_touched; i++) {
                int64_t bank = touched[i];
                int64_t slot = best_slot[bank];
                ntx_state *s;
                best_prio[bank] = free_prio;
                if (slot < 0)
                    continue;
                s = &states[slot >> 2];
                switch (slot & 3) {
                case 0:
                    s->pos0++;
                    s->pos1 += s->follow & 1;
                    s->rpos += s->follow >> 1 & 1;
                    break;
                case 1: s->pos1++; s->rpos += s->follow >> 2; break;
                case 2: s->rpos++; break;
                default: s->wpos++; break;
                }
            }
            num_touched = 0;
        }
        rr = rr + 1 == num_masters ? 0 : rr + 1;

        /* Commit: setup/drain phases, one retirement per co-processor. */
        for (i = 0; i < num_ntx; i++) {
            ntx_state *s = &states[i];
            const int64_t *plan = s->plan;

            if (s->phase == IDLE)
                continue;
            if (s->phase == SETUP) {
                s->setup_left--;
                s->active++;
                if (s->setup_left == 0)
                    s->phase = RUN;
                continue;
            }
            if (s->retired < plan[COL_TOTAL]) {
                int64_t k = s->retired;
                int ready = 1;
                if (s->p0 && s->pos0 <= k)
                    ready = 0;
                else if (s->p1 && s->pos1 <= k)
                    ready = 0;
                else if (s->init && s->rpos * plan[COL_PERIOD_INIT] <= k)
                    ready = 0; /* rpos <= k // period_init */
                if (ready && plan[COL_NUM_STORES] > 0) {
                    /* k retires a store: k % period_store == period_store - 1,
                     * whose write-back index is k // period_store. */
                    int64_t period = plan[COL_PERIOD_STORE];
                    int64_t stores = (k + 1) / period;
                    if (stores * period == k + 1
                        && stores - 1 - s->wpos >= cfg->wb_depth)
                        ready = 0; /* write-back FIFO full */
                }
                if (ready) {
                    s->retired = k + 1;
                    s->active++;
                    if (s->retired == plan[COL_TOTAL]) {
                        s->drain_left = cfg->drain_cycles;
                        if (cfg->drain_cycles == 0
                            && s->wpos == plan[COL_NUM_STORES])
                            s->phase = IDLE;
                    }
                    continue;
                }
                s->stall++;
                continue;
            }
            /* All micro-ops retired: drain the write-back FIFO, then the
             * fixed pipeline-drain cycles. */
            if (s->wpos == plan[COL_NUM_STORES]) {
                if (s->drain_left > 0) {
                    s->drain_left--;
                    s->active++;
                }
                if (s->drain_left <= 0)
                    s->phase = IDLE;
                continue;
            }
            s->stall++;
        }

        cycles++;
    }

    out->cycles = cycles;
    out->requests = requests;
    out->grants = grants;
    out->conflicts = conflicts;
    out->conflict_cycles = conflict_cycles;
    /* Python's offset is only reduced once a cycle has advanced it. */
    out->rr_offset = cycles > 0 ? rr : cfg->rr_offset;
    for (i = 0; i < num_ntx; i++) {
        per_ntx[i] = states[i].active;
        per_ntx[num_ntx + i] = states[i].stall;
    }

done:
    free(states);
    free(best_prio);
    free(best_slot);
    free(touched);
    return status;
}

/* ------------------------------------------------------------------------
 * MAC write-back
 *
 * tc_mac replays one MAC command over a word-major (words, tiles) float32
 * stack of TCDM images: row w holds word w of every tile, so the lane
 * loop over tiles runs over contiguous memory.  read0/read1 hold one
 * operand word index per iteration, init one AGU2 init-read word per
 * init block (NULL for a zero init) and store one word per write-back.
 * Every store is bit-identical to repro.softfloat.pcs.PcsAccumulator fed
 * the same operands, for any register geometry (lsb_exponent, width).
 *
 * A block is one accumulator lifetime: period_init iterations, with a
 * write-back at the end of every period_store iterations.  Its stores
 * are staged in a buffer and written to the stack when the block ends.
 * The engines refuse commands with a read of an earlier store of the same
 * command, so no read of a block can observe any store of the command,
 * and staging changes nothing.
 *
 * Two lanes:
 *   fast   float64 products (exact for binary32 x binary32) summed as a
 *          double-double per tile: a running sum s, whose Knuth TwoSum
 *          residual is added into a compensation c, whose own TwoSum
 *          residual is accumulated as err += fabs(r2).  While err stays
 *          zero every step was exact, so s + c is exactly the register
 *          content; one more TwoSum splits s + c into hi + lo, rounding
 *          hi to odd on lo (one step toward lo when hi is even and lo is
 *          not zero) and casting that with (float) is the register's
 *          single round-to-nearest-even write-back.  A positive r2 never
 *          sums back to zero, and NaN or inf leave err non-zero.  The
 *          lane only runs where the register provably holds the exact
 *          sum: no product bit lies below lsb_exponent and no block can
 *          reach the register's overflow bound.  A command starts
 *          plain (comp stays zero and err sums the first residuals,
 *          which lattice data never makes non-zero) and turns
 *          compensated for good at the first block whose plain sum
 *          rounded, which it then replays compensated.
 *   exact  every other tile (a sum spanning more bits than s + c holds,
 *          a NaN or an infinity), and every tile of any other geometry:
 *          the register itself, as signed 32-bit digits in int64 chunks
 *          anchored at lsb_exponent (Neal's small superaccumulator), with
 *          PcsAccumulator's truncation toward zero below the LSB, its
 *          sticky overflow test after every add, NaN and infinity flags,
 *          and one rounding to binary32 at each write-back.
 *
 * Returns MAC_DONE or MAC_NO_MEMORY (the stack is then unchanged).
 * ---------------------------------------------------------------------- */

enum { MAC_DONE = 0, MAC_NO_MEMORY = -1 };

#define QNAN_BITS 0x7FC00000u
#define INF_BITS 0x7F800000u
#define SIGN_BIT 0x80000000u
#define MANT_MASK 0x007FFFFFu
#define DIGIT_BITS 32
#define DIGIT_MASK ((int64_t)0xFFFFFFFF)
#define DIGIT_BASE ((int64_t)1 << DIGIT_BITS)
/* Adds between carry normalisations: each add moves a digit by < 2**33,
 * so 2**28 of them stay far inside int64. */
#define PENDING_LIMIT ((int64_t)1 << 28)

enum {
    PRODUCT_LSB = -298, /* LSB of a subnormal x subnormal product */
    PRODUCT_TOP = 256,  /* every binary32 product is below 2**256 */
    EXP_BIAS = 127,
    MIN_NORMAL_EXP = -126,
    MIN_SUBNORMAL_EXP = -149
};

typedef struct {
    int64_t *digit;   /* value = sum digit[i] * 2**(32 i + lsb) */
    int64_t *scratch; /* the magnitude at write-back */
    int64_t n;
    int64_t lsb;
    int64_t width;
    int check_range;  /* whether a block can reach 2**(width - 1) */
    int64_t pending;
    int nan;
    int overflow;
    int inf_sign;     /* -1 without an infinity, else its sign */
} pcs_register;

static int64_t bit_length(uint64_t x)
{
    int64_t bits = 0;
    while (x) {
        bits++;
        x >>= 1;
    }
    return bits;
}

/* Carry every digit but the top one into [0, 2**32); the value stays. */
static void normalize(int64_t *digit, int64_t n)
{
    int64_t carry = 0, i;
    for (i = 0; i + 1 < n; i++) {
        int64_t v = digit[i] + carry;
        int64_t low = v & DIGIT_MASK;
        carry = (v - low) / DIGIT_BASE;
        digit[i] = low;
    }
    digit[n - 1] += carry;
}

static int pcs_open(pcs_register *r, int64_t lsb, int64_t width, int64_t period_init)
{
    /* Magnitude bound of one block: period_init products and an init
     * value, each below 2**PRODUCT_TOP, in units of 2**lsb. */
    int64_t top = lsb < PRODUCT_TOP ? PRODUCT_TOP - lsb : 0;
    int64_t reach = top + bit_length((uint64_t)period_init + 1);
    r->n = (top + 64) / DIGIT_BITS + 3;
    r->digit = malloc((size_t)(2 * r->n) * sizeof *r->digit);
    r->scratch = r->digit ? r->digit + r->n : NULL;
    r->lsb = lsb;
    r->width = width;
    r->check_range = width - 1 < reach;
    return r->digit != NULL;
}

static void pcs_clear(pcs_register *r)
{
    memset(r->digit, 0, (size_t)r->n * sizeof *r->digit);
    r->pending = 0;
    r->nan = 0;
    r->overflow = 0;
    r->inf_sign = -1;
}

/* Whether the value lies outside [-2**(width-1), 2**(width-1)), i.e.
 * value >> (width - 1) is neither 0 nor -1.  Only called when
 * check_range holds, so width - 1 < 32 * (n - 1). */
static int pcs_out_of_range(pcs_register *r)
{
    const int64_t top = r->width - 1;
    const int64_t k = top / DIGIT_BITS;
    const int b = (int)(top % DIGIT_BITS);
    const int64_t *d = r->digit;
    int64_t i;

    normalize(r->digit, r->n);
    r->pending = 0;
    if (d[r->n - 1] >= 0) {
        if (d[k] >> b)
            return 1;
        for (i = k + 1; i < r->n; i++)
            if (d[i])
                return 1;
        return 0;
    }
    if ((d[k] >> b) != (DIGIT_MASK >> b))
        return 1;
    for (i = k + 1; i + 1 < r->n; i++)
        if (d[i] != DIGIT_MASK)
            return 1;
    return d[r->n - 1] != -1;
}

/* Add (-1)**negative * magnitude * 2**exponent (magnitude < 2**48). */
static void pcs_add(pcs_register *r, uint64_t magnitude, int negative, int64_t exponent)
{
    int64_t shift = exponent - r->lsb;
    uint64_t low, high;
    int64_t d0, d1, d2, index;
    int offset;

    if (shift < 0) {
        /* Bits below the LSB are dropped, toward zero. */
        magnitude = -shift >= 64 ? 0 : magnitude >> -shift;
        shift = 0;
    }
    if (!magnitude)
        return;
    index = shift / DIGIT_BITS;
    offset = (int)(shift % DIGIT_BITS);
    low = (magnitude & (uint64_t)DIGIT_MASK) << offset;
    high = (magnitude >> DIGIT_BITS) << offset;
    d0 = (int64_t)(low & (uint64_t)DIGIT_MASK);
    d1 = (int64_t)(low >> DIGIT_BITS) + (int64_t)(high & (uint64_t)DIGIT_MASK);
    d2 = (int64_t)(high >> DIGIT_BITS);
    if (negative) {
        d0 = -d0;
        d1 = -d1;
        d2 = -d2;
    }
    r->digit[index] += d0;
    r->digit[index + 1] += d1;
    r->digit[index + 2] += d2;
    if (++r->pending == PENDING_LIMIT) {
        normalize(r->digit, r->n);
        r->pending = 0;
    }
    /* The sticky overflow test after every add. */
    if (r->check_range && !r->overflow && pcs_out_of_range(r))
        r->overflow = 1;
}

static void pcs_infinity(pcs_register *r, int sign)
{
    if (r->inf_sign < 0)
        r->inf_sign = sign;
    else if (r->inf_sign != sign)
        r->nan = 1; /* inf - inf */
}

static int f32_is_nan(uint32_t bits)
{
    return (bits & ~SIGN_BIT) > INF_BITS;
}

static int f32_is_inf(uint32_t bits)
{
    return (bits & ~SIGN_BIT) == INF_BITS;
}

static int f32_is_zero(uint32_t bits)
{
    return (bits & ~SIGN_BIT) == 0;
}

static uint64_t f32_significand(uint32_t bits)
{
    uint32_t biased = (bits >> 23) & 0xFF;
    return biased ? (bits & MANT_MASK) | (MANT_MASK + 1) : bits & MANT_MASK;
}

static int64_t f32_lsb_exponent(uint32_t bits)
{
    int64_t biased = (bits >> 23) & 0xFF;
    return biased ? biased - EXP_BIAS - 23 : MIN_SUBNORMAL_EXP;
}

/* PcsAccumulator.accumulate_value: the AGU2 init value. */
static void pcs_value(pcs_register *r, uint32_t bits)
{
    if (f32_is_nan(bits))
        r->nan = 1;
    else if (f32_is_inf(bits))
        pcs_infinity(r, (int)(bits >> 31));
    else if (!f32_is_zero(bits))
        pcs_add(r, f32_significand(bits), (int)(bits >> 31), f32_lsb_exponent(bits));
}

/* PcsAccumulator.fma: one exact product. */
static void pcs_fma(pcs_register *r, uint32_t a, uint32_t b)
{
    if (f32_is_nan(a) || f32_is_nan(b)) {
        r->nan = 1;
    } else if (f32_is_inf(a) || f32_is_inf(b)) {
        if (f32_is_zero(a) || f32_is_zero(b))
            r->nan = 1; /* inf * 0 */
        else
            pcs_infinity(r, (int)((a ^ b) >> 31));
    } else if (!f32_is_zero(a) && !f32_is_zero(b)) {
        pcs_add(r, f32_significand(a) * f32_significand(b), (int)((a ^ b) >> 31),
                f32_lsb_exponent(a) + f32_lsb_exponent(b));
    }
}

/* Bits [pos, pos + count) of a normalised non-negative digit array
 * (count <= 32, pos >= 0). */
static uint64_t bits_at(const int64_t *digit, int64_t n, int64_t pos, int count)
{
    int64_t index = pos / DIGIT_BITS;
    int offset = (int)(pos % DIGIT_BITS);
    uint64_t value = index < n ? (uint64_t)digit[index] >> offset : 0;
    if (offset && index + 1 < n)
        value |= (uint64_t)digit[index + 1] << (DIGIT_BITS - offset);
    return value & (((uint64_t)1 << count) - 1);
}

/* Whether any bit below pos is set. */
static int any_below(const int64_t *digit, int64_t pos)
{
    int64_t index = pos / DIGIT_BITS, i;
    int offset = (int)(pos % DIGIT_BITS);
    if (offset && ((uint64_t)digit[index] & (((uint64_t)1 << offset) - 1)))
        return 1;
    for (i = 0; i < index; i++)
        if (digit[i])
            return 1;
    return 0;
}

/* PcsAccumulator.to_float32 under round-to-nearest-even, as bits. */
static uint32_t pcs_round(pcs_register *r)
{
    const int64_t n = r->n;
    int64_t *mag = r->scratch;
    int64_t i, h, msb, target, shift, length;
    uint64_t kept;
    uint32_t sign;

    if (r->nan)
        return QNAN_BITS;
    if (r->inf_sign >= 0)
        return INF_BITS | (r->inf_sign ? SIGN_BIT : 0);
    normalize(r->digit, n);
    r->pending = 0;
    sign = r->digit[n - 1] < 0 ? SIGN_BIT : 0;
    if (r->overflow)
        return INF_BITS | sign;
    for (i = 0; i < n; i++)
        mag[i] = sign ? -r->digit[i] : r->digit[i];
    normalize(mag, n);
    for (h = n - 1; h >= 0 && !mag[h]; h--)
        ;
    if (h < 0)
        return 0; /* an exact zero writes back +0 */
    msb = r->lsb + h * DIGIT_BITS + bit_length((uint64_t)mag[h]) - 1;
    if (msb > EXP_BIAS)
        return INF_BITS | sign;
    target = msb >= MIN_NORMAL_EXP ? msb - 23 : MIN_SUBNORMAL_EXP;
    shift = target - r->lsb;
    if (shift <= 0) {
        kept = (uint64_t)mag[0] << -shift; /* below 2**24: exact */
    } else {
        kept = bits_at(mag, n, shift, 25);
        if (bits_at(mag, n, shift - 1, 1) && (any_below(mag, shift - 1) || (kept & 1)))
            kept++;
    }
    if (!kept)
        return sign; /* underflow to a signed zero */
    length = bit_length(kept);
    if (target + length - 1 < MIN_NORMAL_EXP)
        return sign | (uint32_t)kept; /* subnormal */
    if (length > 24) {
        kept >>= 1; /* the rounding carried: 2**24 -> 2**23, exactly */
        target++;
    }
    if (target + 23 + EXP_BIAS >= 0xFF)
        return INF_BITS | sign;
    return sign | (uint32_t)(target + 23 + EXP_BIAS) << 23 | ((uint32_t)kept & MANT_MASK);
}

static uint32_t float_bits(float value)
{
    uint32_t bits;
    memcpy(&bits, &value, sizeof bits);
    return bits;
}

static float bits_float(uint32_t bits)
{
    float value;
    memcpy(&value, &bits, sizeof value);
    return value;
}

/* The lane loop also gets an AVX2 clone, picked at load time where the
 * CPU has it (GCC/Clang function multi-versioning on x86-64 glibc): four
 * doubles per vector instead of two.  AVX2 brings no FMA, and
 * -ffp-contract=off forbids contraction anyway, so both clones round
 * every operation as written. */
#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
#define LANE_LOOP __attribute__((target_clones("avx2", "default")))
#else
#define LANE_LOOP
#endif

/* One plain step of every tile: sum += a * b, err += |residual|. */
LANE_LOOP
static void two_sum_row(double *restrict sum, double *restrict err,
                        const float *restrict a, const float *restrict b,
                        int64_t tiles)
{
    int64_t lane;
    for (lane = 0; lane < tiles; lane++) {
        double product = (double)a[lane] * (double)b[lane];
        double total = sum[lane] + product;
        double b_part = total - sum[lane];
        double residual = (sum[lane] - (total - b_part)) + (product - b_part);
        err[lane] += fabs(residual);
        sum[lane] = total;
    }
}

/* One compensated step of every tile: sum + comp += a * b, exactly
 * while err stays zero. */
LANE_LOOP
static void compensated_row(double *restrict sum, double *restrict comp,
                            double *restrict err, const float *restrict a,
                            const float *restrict b, int64_t tiles)
{
    int64_t lane;
    for (lane = 0; lane < tiles; lane++) {
        double product = (double)a[lane] * (double)b[lane];
        double total = sum[lane] + product;
        double b_part = total - sum[lane];
        double residual = (sum[lane] - (total - b_part)) + (product - b_part);
        double carried = comp[lane] + residual;
        double c_part = carried - comp[lane];
        err[lane] += fabs((comp[lane] - (carried - c_part)) + (residual - c_part));
        sum[lane] = total;
        comp[lane] = carried;
    }
}

/* The binary32 write-back of every tile's exact sum + comp. */
LANE_LOOP
static void round_row(float *restrict row, const double *restrict sum,
                      const double *restrict comp, int64_t tiles)
{
    int64_t lane;
    for (lane = 0; lane < tiles; lane++) {
        double hi = sum[lane] + comp[lane];
        double b_part = hi - sum[lane];
        double lo = (sum[lane] - (hi - b_part)) + (comp[lane] - b_part);
        int64_t bits, inexact, away;
        /* Round hi to odd: an even hi with lo != 0 steps one ulp toward
         * lo (hi is then not zero), so the cast rounds once.  Written
         * without branches, so the loop vectorizes. */
        memcpy(&bits, &hi, sizeof bits);
        inexact = (lo != 0.0) & ~bits & 1;
        away = (lo > 0.0) == (hi > 0.0);
        bits += inexact * (2 * away - 1);
        memcpy(&hi, &bits, sizeof hi);
        /* + 0.0 writes an exact zero sum back as +0. */
        row[lane] = (float)(hi + 0.0);
    }
}

/* The fast lane over one block, compensated or plain (comp stays zero,
 * and err sums the first residuals); out receives the write-back of
 * every store.  Returns whether any tile's err is non-zero. */
static int fast_block(const float *stack, int64_t tiles, const int64_t *read0,
                      const int64_t *read1, const int64_t *init_word,
                      int64_t period_init, int64_t period_store, int compensated,
                      double *restrict sum, double *restrict comp,
                      double *restrict err, float *restrict out)
{
    int64_t j, lane;
    int flagged = 0;
    if (init_word) {
        const float *row = stack + *init_word * tiles;
        for (lane = 0; lane < tiles; lane++)
            sum[lane] = row[lane];
    } else {
        for (lane = 0; lane < tiles; lane++)
            sum[lane] = 0.0;
    }
    for (lane = 0; lane < tiles; lane++) {
        comp[lane] = 0.0;
        err[lane] = 0.0;
    }
    for (j = 0; j < period_init; j++) {
        const float *a = stack + read0[j] * tiles, *b = stack + read1[j] * tiles;
        if (compensated)
            compensated_row(sum, comp, err, a, b, tiles);
        else
            two_sum_row(sum, err, a, b, tiles);
        if ((j + 1) % period_store == 0)
            round_row(out + ((j + 1) / period_store - 1) * tiles, sum, comp, tiles);
    }
    for (lane = 0; lane < tiles; lane++)
        flagged |= err[lane] != 0.0;
    return flagged;
}

/* The exact lane: one tile's block through the register. */
static void exact_block(pcs_register *r, const float *stack, int64_t tiles,
                        int64_t lane, const int64_t *read0, const int64_t *read1,
                        const int64_t *init_word, int64_t period_init,
                        int64_t period_store, float *out)
{
    int64_t j;
    pcs_clear(r);
    if (init_word)
        pcs_value(r, float_bits(stack[*init_word * tiles + lane]));
    for (j = 0; j < period_init; j++) {
        pcs_fma(r, float_bits(stack[read0[j] * tiles + lane]),
                float_bits(stack[read1[j] * tiles + lane]));
        if ((j + 1) % period_store == 0)
            out[((j + 1) / period_store - 1) * tiles + lane] = bits_float(pcs_round(r));
    }
}

int tc_mac(float *stack, int64_t tiles, int64_t total, int64_t period_init,
           int64_t period_store, const int64_t *read0, const int64_t *read1,
           const int64_t *init, const int64_t *store, int64_t lsb, int64_t width)
{
    const int64_t per_block = period_init / period_store;
    const int64_t blocks = total / period_init;
    double *sum = malloc((size_t)tiles * sizeof *sum);
    double *comp = malloc((size_t)tiles * sizeof *comp);
    double *err = malloc((size_t)tiles * sizeof *err);
    float *out = malloc((size_t)(per_block * tiles) * sizeof *out);
    pcs_register reg;
    int status = MAC_DONE, fast, compensated = 0;
    int64_t b, c, lane;

    reg.digit = NULL;
    if (!sum || !comp || !err || !out || !pcs_open(&reg, lsb, width, period_init)) {
        status = MAC_NO_MEMORY;
        goto done;
    }
    fast = lsb <= PRODUCT_LSB && !reg.check_range;
    for (b = 0; b < blocks; b++) {
        const int64_t *r0 = read0 + b * period_init;
        const int64_t *r1 = read1 + b * period_init;
        const int64_t *init_word = init ? init + b : NULL;
        int flagged = 1;
        if (fast) {
            flagged = fast_block(stack, tiles, r0, r1, init_word, period_init,
                                 period_store, compensated, sum, comp, err, out);
            if (flagged && !compensated) {
                /* A plain sum rounded: carry the residuals from now on. */
                compensated = 1;
                flagged = fast_block(stack, tiles, r0, r1, init_word, period_init,
                                     period_store, 1, sum, comp, err, out);
            }
        }
        for (lane = 0; flagged && lane < tiles; lane++)
            if (!fast || err[lane] != 0.0)
                exact_block(&reg, stack, tiles, lane, r0, r1, init_word,
                            period_init, period_store, out);
        for (c = 0; c < per_block; c++)
            memcpy(stack + store[b * per_block + c] * tiles, out + c * tiles,
                   (size_t)tiles * sizeof *out);
    }

done:
    free(sum);
    free(comp);
    free(err);
    free(out);
    free(reg.digit);
    return status;
}
