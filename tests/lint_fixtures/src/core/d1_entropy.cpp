// Fixture: D1 — nondeterministic entropy source in simulation code.
// The fixture tree mirrors the repo layout so path-scoped rules apply the
// same way they do on the real tree.  Line numbers are asserted exactly by
// test_lint.cpp; append new cases at the end only.
#include <random>

namespace espread {

unsigned long entropy_seed() {
    std::random_device rd;  // line 10: D1
    return rd();
}

}  // namespace espread

// A wall clock behind an alias: `clock::now()` names no clock, so D1 fires
// on the alias declaration.
namespace espread {

long long elapsed_ticks() {
    using clock = std::chrono::steady_clock;  // line 21: D1
    return clock::now().time_since_epoch().count();
}

}  // namespace espread

// A CPU-time timer signal interrupts the program at points no seed fixes.
namespace espread {

void start_sampling(const itimerval& every) {
    setitimer(ITIMER_PROF, &every, nullptr);  // line 31: D1
}

}  // namespace espread
