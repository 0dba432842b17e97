// Residue alphabets and their encodings.
//
// Sequences are stored as small integer codes so the alignment kernels can
// index exchange matrices directly (one lookup feeds all SIMD lanes, §4.1 of
// the paper).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace repro::seq {

enum class AlphabetKind : std::uint8_t { kProtein, kDna };

/// Immutable mapping between residue characters and dense codes [0, size).
class Alphabet {
 public:
  /// 20 standard amino acids plus the ambiguity codes B, Z, X and the stop '*'
  /// in the conventional BLOSUM ordering.
  static const Alphabet& protein();

  /// A, C, G, T plus the ambiguity code N.
  static const Alphabet& dna();

  [[nodiscard]] AlphabetKind kind() const { return kind_; }
  [[nodiscard]] int size() const { return static_cast<int>(letters_.size()); }
  [[nodiscard]] std::string_view letters() const { return letters_; }

  /// True if `c` (any case) is a residue of this alphabet.
  [[nodiscard]] bool valid(char c) const;

  /// Encodes a residue character; throws on characters outside the alphabet.
  [[nodiscard]] std::uint8_t encode(char c) const;

  [[nodiscard]] char decode(std::uint8_t code) const;

  /// Code of every byte value (either case of a residue), -1 for bytes
  /// outside the alphabet: one lookup per character for bulk encoders.
  [[nodiscard]] const std::array<std::int8_t, 256>& code_table() const {
    return to_code_;
  }

  /// Code of the ambiguity/unknown residue (X for protein, N for DNA).
  [[nodiscard]] std::uint8_t unknown_code() const { return unknown_; }

  /// Number of unambiguous residues (20 for protein, 4 for DNA); the random
  /// generators draw only from this prefix of the alphabet.
  [[nodiscard]] int core_size() const { return core_size_; }

 private:
  Alphabet(AlphabetKind kind, std::string letters, int core_size, char unknown);

  AlphabetKind kind_;
  std::string letters_;
  int core_size_;
  std::uint8_t unknown_;
  std::array<std::int8_t, 256> to_code_{};
};

}  // namespace repro::seq
