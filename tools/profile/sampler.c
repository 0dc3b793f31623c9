/*
 * A SIGPROF sampling profiler to LD_PRELOAD into any process of this
 * workspace: every millisecond of process CPU time (in practice every
 * scheduler tick, see PERIOD_US) it records the interrupted thread's
 * stack by walking frame pointers,
 * and at exit writes the samples to "$DTBL_PROF_OUT.<pid>" with a copy
 * of the process's memory map beside it ("$DTBL_PROF_OUT.<pid>.maps").
 * Nothing is recorded unless DTBL_PROF_OUT is set. Stacks are only whole
 * in a binary built with frame pointers; see README.md here.
 *
 *   gcc -O2 -shared -fPIC -o libsampler.so sampler.c
 *
 * Output: native-endian u64 words, one record per sample: the frame
 * count n, then n program counters, innermost first (frames after the
 * first are return addresses).
 */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define BUF_WORDS (16u << 20) /* 128 MiB of address space, touched as used */
/* ITIMER_PROF expires on the kernel's scheduler tick, so any period up to
 * the tick (4 ms at HZ=250) gives one sample per tick. */
#define PERIOD_US 1000

static uint64_t *buf;
static atomic_size_t used; /* words reserved, never past BUF_WORDS */
static atomic_size_t lost;
static char out_path[4096];

/* Reads one word of this process's memory without faulting: a frame
 * pointer chain can run into a register that held something else. */
static int peek(uintptr_t addr, uint64_t *word) {
    struct iovec local = {word, sizeof *word};
    struct iovec remote = {(void *)addr, sizeof *word};
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0) == (ssize_t)sizeof *word;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    int saved_errno = errno;
    const mcontext_t *mc = &((const ucontext_t *)ctx)->uc_mcontext;
    uint64_t frames[MAX_DEPTH];
    size_t n = 0;
    frames[n++] = (uint64_t)mc->gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)mc->gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)mc->gregs[REG_RSP];
    /* Each frame stores the caller's frame pointer at fp and the return
     * address at fp + 8; frames only grow towards higher addresses. */
    while (n < MAX_DEPTH && fp >= sp && (fp & 7) == 0) {
        uint64_t next, ret;
        if (!peek(fp, &next) || !peek(fp + 8, &ret) || ret == 0) break;
        frames[n++] = ret;
        if (next <= fp || next - fp > (1u << 20)) break;
        fp = next;
    }
    /* Reserve n + 1 words only while they fit, so the file never ends in
     * reserved words no record was written to. */
    size_t at = atomic_load(&used);
    do {
        if (at + n + 1 > BUF_WORDS) {
            atomic_fetch_add(&lost, 1);
            errno = saved_errno;
            return;
        }
    } while (!atomic_compare_exchange_weak(&used, &at, at + n + 1));
    buf[at] = n;
    memcpy(&buf[at + 1], frames, n * sizeof frames[0]);
    errno = saved_errno;
}

static int write_all(int fd, const void *data, size_t len) {
    const char *p = data;
    while (len > 0) {
        ssize_t w = write(fd, p, len);
        if (w < 0) return -1;
        p += w;
        len -= (size_t)w;
    }
    return 0;
}

__attribute__((constructor)) static void sampler_start(void) {
    const char *out = getenv("DTBL_PROF_OUT");
    if (out == NULL || *out == '\0') return;
    snprintf(out_path, sizeof out_path, "%s.%d", out, (int)getpid());
    buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED) {
        buf = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
    if (buf == NULL) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    size_t words = atomic_load(&used);
    int fd = open(out_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        write_all(fd, buf, words * sizeof *buf);
        close(fd);
    }
    char maps_path[4200];
    snprintf(maps_path, sizeof maps_path, "%s.maps", out_path);
    int in = open("/proc/self/maps", O_RDONLY);
    int mo = open(maps_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in >= 0 && mo >= 0) {
        char chunk[65536];
        ssize_t r;
        while ((r = read(in, chunk, sizeof chunk)) > 0) write_all(mo, chunk, (size_t)r);
    }
    if (in >= 0) close(in);
    if (mo >= 0) close(mo);
    if (atomic_load(&lost) > 0)
        fprintf(stderr, "sampler: buffer full, %zu samples lost\n", atomic_load(&lost));
}
