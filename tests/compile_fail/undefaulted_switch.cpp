// Compile-fail fixture: a switch without a default: label that does not
// name Mode::kC.  -Werror=switch must reject it, so this file never builds;
// CompileFail.SwitchRejectsUndefaultedSwitch (tests/CMakeLists.txt) builds
// it on demand and passes only when the compiler names the check.
namespace espread::compile_fail {

enum class Mode { kA, kB, kC };

int rank(Mode m) {
    switch (m) {
        case Mode::kA: return 1;
        case Mode::kB: return 2;
    }
    return 0;
}

}  // namespace espread::compile_fail
