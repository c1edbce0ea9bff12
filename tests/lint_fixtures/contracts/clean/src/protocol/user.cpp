// Consistent consumer: a registered lane, split inside its family's scope.
#include "sim/contracts.hpp"

void user(Rng& rng) {
    auto a = rng.split(espread::contracts::kSessionLaneData);
    (void)a;
}
