/* Times generated kernels without Python in the loop.
 *
 * Usage: driver <inputs.bin> <outputs.bin>
 *
 * The kernels are linked in through perfbench_table (written per run by
 * kernels.py).  inputs.bin holds, per kernel, its parameter buffers in
 * call order: int32 count, int32 flags, then `count` doubles when
 * FLAG_DATA is set (otherwise the buffer starts zeroed).  Buffers flagged
 * FLAG_RESTORE are read and written by the kernel and are copied back to
 * their initial values before every timed call.
 *
 * For each kernel the driver runs one call from the initial state and
 * writes every buffer to outputs.bin (the caller checks them against a
 * reference), then prints "<kernel> <ns per call>": the median over
 * batches of (restore + call) minus the median over batches of restore
 * alone.
 *
 * Each batch runs with the stack shifted by another multiple of 16 bytes,
 * covering every 16-byte offset within a 4 KiB page once.  The kernels
 * keep temporaries on the stack, and the kernel's time depends on where
 * they fall relative to its heap buffers (4K aliasing).  The process's
 * random stack offset only rotates this set of offsets, so the medians do
 * not depend on it.
 */
#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define FLAG_DATA 1
#define FLAG_RESTORE 2
#define BATCHES 256
#define STACK_STEP 16
#define TARGET_BATCH_NS 50000.0

typedef void (*kernel_call)(double **);
extern kernel_call perfbench_table[];
extern int perfbench_count;

typedef struct {
    int32_t count;
    int32_t flags;
    double *initial;
    double *work;
} buffer;

static double now_ns(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

static int compare_double(const void *a, const void *b) {
    double x = *(const double *)a, y = *(const double *)b;
    return (x > y) - (x < y);
}

static void read_exact(void *dst, size_t size, size_t n, FILE *in) {
    if (fread(dst, size, n, in) != n) {
        fprintf(stderr, "cdriver: truncated input\n");
        exit(2);
    }
}

static void restore(buffer *bufs, int n) {
    for (int i = 0; i < n; i++) {
        if (bufs[i].flags & FLAG_RESTORE)
            memcpy(bufs[i].work, bufs[i].initial,
                   sizeof(double) * (size_t)bufs[i].count);
    }
    __asm__ __volatile__("" ::: "memory");
}

static __attribute__((noinline)) double batch(kernel_call call, double **args, buffer *bufs, int n,
                    long inner, int with_call) {
    double start = now_ns();
    for (long r = 0; r < inner; r++) {
        restore(bufs, n);
        if (with_call)
            call(args);
    }
    return (now_ns() - start) / (double)inner;
}

static __attribute__((noinline)) void shifted_batches(
        int shift, kernel_call call, double **args, buffer *bufs, int n,
        long inner, double *with_call, double *restore_only) {
    volatile char *pad = __builtin_alloca((size_t)(shift + 1) * STACK_STEP);
    pad[0] = 0;
    *with_call = batch(call, args, bufs, n, inner, 1);
    *restore_only = batch(call, args, bufs, n, inner, 0);
}

int main(int argc, char **argv) {
    if (argc != 3) {
        fprintf(stderr, "usage: %s inputs.bin outputs.bin\n", argv[0]);
        return 2;
    }
    FILE *in = fopen(argv[1], "rb");
    FILE *out = fopen(argv[2], "wb");
    if (!in || !out) {
        fprintf(stderr, "cdriver: cannot open input/output file\n");
        return 2;
    }
    int32_t kernels;
    read_exact(&kernels, sizeof kernels, 1, in);
    if (kernels != perfbench_count) {
        fprintf(stderr, "cdriver: %d kernels in input, %d linked\n",
                (int)kernels, perfbench_count);
        return 2;
    }
    for (int k = 0; k < kernels; k++) {
        int32_t n;
        read_exact(&n, sizeof n, 1, in);
        buffer *bufs = calloc((size_t)n, sizeof *bufs);
        double **args = calloc((size_t)n, sizeof *args);
        for (int i = 0; i < n; i++) {
            read_exact(&bufs[i].count, sizeof(int32_t), 1, in);
            read_exact(&bufs[i].flags, sizeof(int32_t), 1, in);
            bufs[i].initial = calloc((size_t)bufs[i].count, sizeof(double));
            bufs[i].work = calloc((size_t)bufs[i].count, sizeof(double));
            if (bufs[i].flags & FLAG_DATA)
                read_exact(bufs[i].initial, sizeof(double),
                           (size_t)bufs[i].count, in);
            memcpy(bufs[i].work, bufs[i].initial,
                   sizeof(double) * (size_t)bufs[i].count);
            args[i] = bufs[i].work;
        }
        kernel_call call = perfbench_table[k];

        call(args);
        for (int i = 0; i < n; i++)
            fwrite(bufs[i].work, sizeof(double), (size_t)bufs[i].count, out);

        long inner = 1;
        while (batch(call, args, bufs, n, inner, 1) * inner < TARGET_BATCH_NS
               && inner < (1L << 24))
            inner *= 2;
        double with_call[BATCHES], restore_only[BATCHES];
        for (int b = 0; b < BATCHES; b++) {
            shifted_batches(b, call, args, bufs, n, inner,
                            &with_call[b], &restore_only[b]);
        }
        qsort(with_call, BATCHES, sizeof(double), compare_double);
        qsort(restore_only, BATCHES, sizeof(double), compare_double);
        printf("%d %.6f\n", k,
               with_call[BATCHES / 2] - restore_only[BATCHES / 2]);

        for (int i = 0; i < n; i++) {
            free(bufs[i].initial);
            free(bufs[i].work);
        }
        free(bufs);
        free(args);
    }
    fclose(in);
    if (fclose(out) != 0) {
        fprintf(stderr, "cdriver: cannot write outputs\n");
        return 2;
    }
    return 0;
}
