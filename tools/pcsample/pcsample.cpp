// Preloadable PC sampler:
//
//   LD_PRELOAD=build/tools/pcsample/libpcsample.so <program> [args...]
//   python3 tools/pcsample/symbolize.py pcsample.<pid>.txt
//
// ITIMER_PROF asks for SIGPROF every millisecond of the process's CPU
// time, all threads counted (the kernel may round up to its tick); the
// handler records the program counter the signal interrupted.  At exit the samples go to
// pcsample.<pid>.txt in the working directory, after /proc/self/maps, from
// which the symbolizer finds each module's load base.
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 22;  // ~70 CPU-minutes
std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_count{0};

void on_prof(int, siginfo_t*, void* context) {
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
    const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxSamples) g_pcs[i] = pc;
}

void set_timer(long usec) {
    const itimerval every{{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &every, nullptr);  // espread-lint: allow(D1) a profiler samples on CPU time; nothing it records reaches a simulation
}

__attribute__((constructor)) void start() {
    struct sigaction sa {};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    set_timer(1000);
}

__attribute__((destructor)) void stop() {
    set_timer(0);
    char path[64];
    std::snprintf(path, sizeof path, "pcsample.%d.txt", static_cast<int>(getpid()));
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) return;
    if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
        char line[4096];
        while (std::fgets(line, sizeof line, maps) != nullptr) {
            std::fprintf(out, "map %s", line);
        }
        std::fclose(maps);
    }
    const std::size_t n = g_count.load() < kMaxSamples ? g_count.load() : kMaxSamples;
    for (std::size_t i = 0; i < n; ++i) {
        std::fprintf(out, "pc %llx\n", static_cast<unsigned long long>(g_pcs[i]));
    }
    std::fclose(out);
    std::fprintf(stderr, "pcsample: %zu samples in %s\n", n, path);
}

}  // namespace
