// Fixture registry: the telemetry signal names CI --slo specs may use.
#pragma once
#include <string_view>

namespace espread::contracts {

inline constexpr std::string_view kTelemetrySignalNames[] = {
    "clf",
    "loss_run",
};

}  // namespace espread::contracts
