#include "core/eval_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "grid/result_schema.hpp"
#include "obs/manifest.hpp"

namespace scal::core {

namespace {

constexpr char kMagic[4] = {'S', 'E', 'V', 'C'};
constexpr std::uint32_t kEndianProbe = 0x01020304u;
constexpr std::uint32_t kFormatVersion = 1;

// The value-schema stamp: FNV-1a over the type and name of every stored
// result row (grid/result_schema.hpp, workload_stats's rows included),
// so any change to the field list visit_value walks invalidates older
// files.
constexpr std::uint32_t fnv1a(std::string_view text) {
  std::uint32_t h = 2166136261u;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  }
  return h;
}
#define SCAL_FIELD_TEXT(type, name, init, block, key) #type " " #name ";"
#define SCAL_NO_TEXT(expr, block, key)
#define SCAL_STAT_TEXT(type, name) #type " " #name ";"
constexpr std::uint32_t kValueSchema =
    fnv1a(SCAL_RESULT_SCHEMA(SCAL_FIELD_TEXT, SCAL_NO_TEXT)
              SCAL_TRACE_STATS_FIELDS(SCAL_STAT_TEXT));
#undef SCAL_FIELD_TEXT
#undef SCAL_NO_TEXT
#undef SCAL_STAT_TEXT

// A single field walk shared by the writer and the reader keeps the two
// in lockstep by construction: each Codec maps a field onto stream
// writes or stream reads by its type.

struct Writer {
  std::ostream& out;
  void raw64(std::uint64_t bits) {
    char buf[8];
    std::memcpy(buf, &bits, sizeof(buf));
    out.write(buf, sizeof(buf));
  }
  void raw32(std::uint32_t bits) {
    char buf[4];
    std::memcpy(buf, &bits, sizeof(buf));
    out.write(buf, sizeof(buf));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    raw64(bits);
  }
  template <typename T>
  void field(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      out.put(v ? '\1' : '\0');
    } else if constexpr (std::is_enum_v<T>) {
      raw32(static_cast<std::uint32_t>(v));
    } else {
      static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
      raw64(static_cast<std::uint64_t>(v));
    }
  }
  bool ok() const { return static_cast<bool>(out); }
};

struct Reader {
  std::istream& in;
  bool good = true;
  std::uint64_t raw64() {
    char buf[8];
    in.read(buf, sizeof(buf));
    if (!in) {
      good = false;
      return 0;
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, buf, sizeof(bits));
    return bits;
  }
  std::uint32_t raw32() {
    char buf[4];
    in.read(buf, sizeof(buf));
    if (!in) {
      good = false;
      return 0;
    }
    std::uint32_t bits = 0;
    std::memcpy(&bits, buf, sizeof(bits));
    return bits;
  }
  void f64(double& v) {
    const std::uint64_t bits = raw64();
    std::memcpy(&v, &bits, sizeof(v));
  }
  template <typename T>
  void field(T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      const int c = in.get();
      if (c == std::istream::traits_type::eof()) good = false;
      v = good && c != 0;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(raw32());
    } else {
      static_assert(std::is_integral_v<T> && sizeof(T) <= 8);
      v = static_cast<T>(raw64());
    }
  }
  bool ok() const { return good && static_cast<bool>(in); }
};

/// Every stored SimulationResult field, in schema order.
template <typename Codec, typename Result>
void visit_value(Codec& c, Result& r) {
  grid::for_each_field([&c](grid::FieldName, auto& v) { c.field(v); }, r);
}

bool key_less(const opt::EvalKey& a, const opt::EvalKey& b) {
  if (a.digest != b.digest) return a.digest < b.digest;
  return a.point < b.point;
}

}  // namespace

std::string eval_cache_code_version() { return obs::git_describe(); }

std::size_t save_eval_cache(const EvalCache& cache, const std::string& path,
                            const std::string& code_version) {
  std::vector<std::pair<opt::EvalKey, grid::SimulationResult>> entries =
      cache.snapshot();
  // Deterministic file bytes: hash-map iteration order never leaks.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return key_less(a.first, b.first); });

  // Write a uniquely named sibling, then rename it over the target: a
  // killed run leaves at most a stray temp file, and a reader or a
  // concurrent writer only ever sees a whole file.
  static std::atomic<std::uint64_t> next_temp{0};
  const std::string temp = path + ".tmp-" + std::to_string(::getpid()) +
                           "-" + std::to_string(next_temp.fetch_add(1));
  struct TempFile {  // removed on every path that does not rename it
    const std::string& path;
    bool renamed = false;
    ~TempFile() {
      if (!renamed) std::remove(path.c_str());
    }
  } temp_file{temp};

  std::ofstream out(temp, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("eval_store: cannot write " + temp);
  }
  Writer w{out};
  out.write(kMagic, sizeof(kMagic));
  w.raw32(kEndianProbe);
  w.raw32(kFormatVersion);
  w.raw32(kValueSchema);
  w.raw32(static_cast<std::uint32_t>(code_version.size()));
  out.write(code_version.data(),
            static_cast<std::streamsize>(code_version.size()));
  w.raw64(entries.size());
  for (auto& [key, value] : entries) {
    w.raw64(key.digest[0]);
    w.raw64(key.digest[1]);
    w.raw32(static_cast<std::uint32_t>(key.point.size()));
    for (const double coordinate : key.point) w.f64(coordinate);
    visit_value(w, value);
  }
  out.close();
  if (!w.ok()) {
    throw std::runtime_error("eval_store: short write to " + temp);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("eval_store: cannot replace " + path);
  }
  temp_file.renamed = true;
  return entries.size();
}

std::size_t save_eval_cache(const EvalCache& cache, const std::string& path) {
  return save_eval_cache(cache, path, eval_cache_code_version());
}

EvalStoreStats load_eval_cache(EvalCache& cache, const std::string& path,
                               const std::string& code_version) {
  EvalStoreStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // cold: no file yet
  stats.found = true;

  Reader r{in};
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      r.raw32() != kEndianProbe || r.raw32() != kFormatVersion ||
      r.raw32() != kValueSchema) {
    stats.version_mismatch = true;
    return stats;
  }
  const std::uint32_t version_len = r.raw32();
  if (!r.ok() || version_len > 4096) {
    stats.version_mismatch = true;
    return stats;
  }
  std::string file_version(version_len, '\0');
  in.read(file_version.data(), static_cast<std::streamsize>(version_len));
  if (!in || file_version != code_version) {
    stats.version_mismatch = true;
    return stats;
  }
  const std::uint64_t count = r.raw64();
  if (!r.ok()) {
    stats.version_mismatch = true;
    return stats;
  }
  stats.entries_in_file = static_cast<std::size_t>(count);

  // Parse fully before touching the cache: a truncated file is
  // discarded whole rather than half-preloaded.
  std::vector<std::pair<opt::EvalKey, grid::SimulationResult>> parsed;
  parsed.reserve(stats.entries_in_file);
  for (std::uint64_t i = 0; i < count; ++i) {
    opt::EvalKey key;
    key.digest[0] = r.raw64();
    key.digest[1] = r.raw64();
    const std::uint32_t dims = r.raw32();
    if (!r.ok() || dims > 1024) {
      stats.version_mismatch = true;
      return stats;
    }
    key.point.resize(dims);
    for (double& coordinate : key.point) r.f64(coordinate);
    grid::SimulationResult value;
    visit_value(r, value);
    if (!r.ok()) {
      stats.version_mismatch = true;
      return stats;
    }
    parsed.emplace_back(std::move(key), std::move(value));
  }

  for (auto& [key, value] : parsed) {
    cache.preload(key, value);
    ++stats.loaded;
  }
  return stats;
}

EvalStoreStats load_eval_cache(EvalCache& cache, const std::string& path) {
  return load_eval_cache(cache, path, eval_cache_code_version());
}

}  // namespace scal::core
