/*
 * Compiled timing core of the vectorized cluster engine.
 *
 * This is the per-cycle loop of repro.cluster.vecsim, transcribed from
 * the Python reference loop (repro.cluster.vecsim._reference_loop) with
 * two exact rewrites: each request is arbitrated as it is presented
 * instead of being collected into a list first (same order, same
 * winners), and hot-path integer divisions become multiplications and
 * compares (all operands are non-negative there).  It covers the per-NTX
 * phase machine (idle -> setup -> run -> drain), the operand-FIFO
 * run-ahead window, one retirement per cycle, write-back backpressure,
 * background DMA beats and rotating-priority per-bank arbitration over
 * precomputed bank ids.  Both loops must produce identical counters for every input;
 * tests/test_vecsim.py fuzzes them against each other.
 *
 * Inputs (all owned by the caller):
 *   cfg          machine and run parameters;
 *   queue_start  num_ntx + 1 offsets: NTX i runs commands
 *                [queue_start[i], queue_start[i + 1]) in order;
 *   commands     TC_COLUMNS int64 values per command (see the enum);
 *                a negative stream offset means the port is absent;
 *   streams      every command's per-port bank ids and init positions,
 *                concatenated.
 * Outputs: per_ntx[i] / per_ntx[num_ntx + i] receive NTX i's active /
 * stall cycles, *out the run counters.
 *
 * Returns TC_DONE, TC_EXCEEDED (max_cycles reached before every command
 * finished; outputs are then unspecified) or TC_NO_MEMORY.
 *
 * Build: cc -O2 -shared -fPIC (no -ffast-math: the DMA accumulator's
 * double arithmetic must round exactly like Python's floats).
 */

#include <stdint.h>
#include <stdlib.h>

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
            if (s->p0 && s->pos0 < plan[COL_TOTAL] && s->pos0 < limit)
                PRESENT(s->p0[s->pos0], slot_base, i);
            if (s->p1 && s->pos1 < plan[COL_TOTAL] && s->pos1 < limit)
                PRESENT(s->p1[s->pos1], slot_base | 1, i);
            if (s->init && s->rpos < plan[COL_NUM_INIT_READS]
                && s->init_ts[s->rpos] < limit) {
                PRESENT(s->init[s->rpos], slot_base | 2, i);
            } else if (plan[COL_NUM_STORES] > 0) {
                int64_t retired = s->retired < plan[COL_TOTAL] ? s->retired
                                                               : plan[COL_TOTAL];
                /* retired // period_store > wpos */
                if (retired >= (s->wpos + 1) * plan[COL_PERIOD_STORE])
                    PRESENT(s->store[s->wpos], slot_base | 3, i);
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
                case 0: s->pos0++; break;
                case 1: s->pos1++; break;
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
