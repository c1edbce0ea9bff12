// Logical data units (paper §2.1): the atoms of a continuous-media stream.
//
// Following the uniform framework the paper cites, a video LDU is one frame
// and an audio LDU is 266 samples of 8 kHz / 8-bit SunAudio — the amount of
// audio played during one video frame time (1/30 s).
#pragma once

#include <cstddef>
#include <string>

namespace espread::media {

/// Coding type of an LDU.
enum class FrameType {
    kI,            ///< MPEG intra frame (anchor)
    kP,            ///< MPEG predicted frame (anchor)
    kB,            ///< MPEG bidirectional frame (non-anchor)
    kIndependent,  ///< dependency-free LDU (MJPEG frame, audio chunk)
};

/// Single-character tag: 'I', 'P', 'B', 'J'.
char frame_type_char(FrameType t) noexcept;

/// One LDU of a stream.
struct Frame {
    std::size_t index = 0;       ///< playback index within the stream
    FrameType type = FrameType::kIndependent;
    std::size_t size_bits = 0;   ///< encoded size
    std::size_t gop = 0;         ///< GOP number (0 for non-MPEG streams)
    std::size_t pos_in_gop = 0;  ///< display position within its GOP
};

/// Audio LDU geometry from the paper (SunAudio).
struct AudioLdu {
    static constexpr std::size_t kSampleRateHz = 8000;
    static constexpr std::size_t kBitsPerSample = 8;
    static constexpr std::size_t kSamplesPerLdu = 266;  // ~1/30 s of audio
    static constexpr std::size_t kBitsPerLdu = kSamplesPerLdu * kBitsPerSample;
};

/// Perceptual tolerance thresholds from the user study the paper cites:
/// consecutive loss beyond 2 video frames (3 audio LDUs) is where user
/// dissatisfaction rises dramatically.
constexpr std::size_t kVideoClfThreshold = 2;
constexpr std::size_t kAudioClfThreshold = 3;

}  // namespace espread::media
