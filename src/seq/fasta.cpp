#include "seq/fasta.hpp"

#include <array>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace repro::seq {
namespace {

/// std::isspace in the "C" locale, without the per-character library call.
constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::vector<Sequence> read_fasta(std::istream& in, const Alphabet& alphabet) {
  const std::array<std::int8_t, 256>& table = alphabet.code_table();
  std::vector<Sequence> records;
  std::string name;
  std::vector<std::uint8_t> codes;
  bool in_record = false;

  auto flush = [&] {
    if (in_record) {
      REPRO_CHECK_MSG(!codes.empty(), "FASTA record '"
                                          << name
                                          << "' has a header but no sequence "
                                             "data");
      records.emplace_back(std::move(name), std::move(codes), alphabet);
      name.clear();
      codes = {};
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      in_record = true;
      name = line.substr(1);
      // Trim leading whitespace of the header.
      const auto pos = name.find_first_not_of(" \t");
      name = pos == std::string::npos ? std::string() : name.substr(pos);
    } else {
      REPRO_CHECK_MSG(in_record, "FASTA data before the first '>' header");
      // One table lookup per character; room for the whole line up front.
      const std::size_t start = codes.size();
      codes.resize(start + line.size());
      std::uint8_t* out = codes.data() + start;
      for (const char c : line) {
        const std::int8_t code = table[static_cast<unsigned char>(c)];
        if (code >= 0) {
          *out++ = static_cast<std::uint8_t>(code);
          continue;
        }
        if (is_space(c)) continue;
        REPRO_CHECK_MSG(alphabet.valid(c), "invalid residue '"
                                               << c << "' in record '" << name
                                               << "'");
      }
      codes.resize(static_cast<std::size_t>(out - codes.data()));
    }
  }
  flush();
  return records;
}

std::vector<Sequence> read_fasta_file(const std::filesystem::path& path,
                                      const Alphabet& alphabet) {
  std::ifstream in(path);
  REPRO_CHECK_MSG(in.good(), "cannot open FASTA file " << path);
  return read_fasta(in, alphabet);
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& records,
                 int width) {
  REPRO_CHECK(width > 0);
  for (const auto& rec : records) {
    out << '>' << rec.name() << '\n';
    const std::string s = rec.to_string();
    for (std::size_t i = 0; i < s.size(); i += static_cast<std::size_t>(width))
      out << s.substr(i, static_cast<std::size_t>(width)) << '\n';
  }
}

void write_fasta_file(const std::filesystem::path& path,
                      const std::vector<Sequence>& records, int width) {
  std::ofstream out(path);
  REPRO_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_fasta(out, records, width);
  REPRO_CHECK_MSG(out.good(), "write to " << path << " failed");
}

}  // namespace repro::seq
