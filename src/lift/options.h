// Options for the word-level lifting subsystem.
#pragma once

#include <cstddef>
#include <cstdint>

namespace netrev::lift {

struct Options {
  // Verify every lifted operator by bit-blasting it back to gates and
  // checking simulation equivalence against the original cone; the verdict
  // is recorded in the emitted model.  Disabling skips the check and marks
  // the document "unchecked".
  bool verify = true;

  // Random (input, state) vectors sampled per operator check.
  std::size_t verify_vectors = 64;
};

// Seed for the deterministic verification vector stream (block-structured,
// so samples are byte-identical at any --jobs value).
inline constexpr std::uint64_t kVerifySeed = 0xB17B1A57;

// Fanin-cone depth captured for opaque fallback operators; frontier nets
// beyond the bound become operator inputs.
inline constexpr std::size_t kOpaqueDepth = 4;

}  // namespace netrev::lift
