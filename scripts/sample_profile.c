/*
 * SIGPROF program-counter sampler, loaded with LD_PRELOAD by
 * sample_profile.py.  When SAMPLE_PROFILE_DIR is set, it samples the
 * interrupted PC every millisecond of process CPU time (the kernel tick
 * may cap the rate lower) and, at exit, writes DIR/<pid>.maps (a copy
 * of /proc/self/maps, to map PCs to objects) and DIR/<pid>.pcs (one hex
 * PC a line).
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 20)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned n_samples;
static const char *out_dir;

static void
on_prof(int sig, siginfo_t *si, void *ctx)
{
    const mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
    (void)sig;
    (void)si;
#if defined(__x86_64__)
    const unsigned long pc = mc->gregs[REG_RIP];
#elif defined(__aarch64__)
    const unsigned long pc = mc->pc;
#else
#error "sample_profile.c: unsupported architecture"
#endif
    if (n_samples < MAX_SAMPLES)
        samples[n_samples++] = pc;
}

__attribute__((constructor)) static void
start(void)
{
    out_dir = getenv("SAMPLE_PROFILE_DIR");
    if (!out_dir)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void
stop(void)
{
    if (!out_dir)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    char line[4096];
    /* The maps first: the script reads only PCs whose maps are there. */
    snprintf(path, sizeof path, "%s/%d.maps", out_dir, (int)getpid());
    FILE *in = fopen("/proc/self/maps", "r");
    FILE *out = fopen(path, "w");
    while (in && out && fgets(line, sizeof line, in))
        fputs(line, out);
    if (in)
        fclose(in);
    if (!out)
        return;
    fclose(out);
    snprintf(path, sizeof path, "%s/%d.pcs", out_dir, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    for (unsigned i = 0; i < n_samples; ++i)
        fprintf(f, "%lx\n", samples[i]);
    fclose(f);
}
