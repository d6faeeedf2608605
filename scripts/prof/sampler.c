// LD_PRELOAD SIGPROF sampler: every 3 ms of process CPU, record the call
// stack of the thread that was running; dump raw addresses at exit.
//   gcc -O2 -shared -fPIC -o sampler.so sampler.c
//   LD_PRELOAD=./sampler.so SAMPLER_OUT=prof.txt ./binary args...
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_SAMPLES 200000
#define DEPTH 48
static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static volatile int n_samples;

static void on_prof(int sig) {
    (void)sig;
    int i = __sync_fetch_and_add(&n_samples, 1);
    if (i < MAX_SAMPLES) depths[i] = backtrace(stacks[i], DEPTH);
}

__attribute__((constructor)) static void start(void) {
    void *prime[4];
    backtrace(prime, 4); // loads libgcc outside the signal handler
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_prof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 3000}, {0, 3000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SAMPLER_OUT");
    FILE *f = fopen(path ? path : "prof.txt", "w");
    if (!f) return;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[512];
    while (maps && fgets(line, sizeof line, maps)) fprintf(f, "M %s", line);
    int n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        fputs("S", f);
        for (int d = 2; d < depths[i]; d++) fprintf(f, " %p", stacks[i][d]); // skip handler + trampoline
        fputs("\n", f);
    }
    fclose(f);
}
