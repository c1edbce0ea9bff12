// Compile-fail fixture: a switch with a default: label that does not name
// Mode::kC.  -Werror=switch-enum must reject it, so this file never
// builds; CompileFail.SwitchEnumRejectsDefaultedSwitch (tests/CMakeLists.txt)
// builds it on demand and passes only when the compiler names the check.
namespace espread::compile_fail {

enum class Mode { kA, kB, kC };

int rank(Mode m) {
    switch (m) {
        case Mode::kA: return 1;
        case Mode::kB: return 2;
        default: return 0;
    }
}

}  // namespace espread::compile_fail
