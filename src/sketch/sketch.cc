#include "sketch/sketch.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace streampart {
namespace sketch {

namespace {

constexpr double kEuler = 2.718281828459045235;

/// Serialized-form magic bytes: one per structure, so a blob deserialized as
/// the wrong sketch fails loudly instead of producing garbage estimates.
constexpr uint32_t kCmMagic = 0x434d5331;   // "CMS1"
constexpr uint32_t kEhMagic = 0x45485331;   // "EHS1"
constexpr uint32_t kEcmMagic = 0x45434d31;  // "ECM1"
constexpr uint32_t kHhMagic = 0x48485331;   // "HHS1"
constexpr uint32_t kQsMagic = 0x51535331;   // "QSS1"

/// Serialized size of an empty structure: the floor every encoded element
/// of that kind occupies.
constexpr uint64_t kMinCmBytes = 4 + 4 + 4 + 8 + 8;
constexpr uint64_t kMinEhBytes = 4 + 4 + 8 + 8;

/// True when \p n bytes remain after \p offset. Never forms offset + n,
/// which wraps for n near 2^64.
bool HasBytes(std::string_view data, size_t offset, uint64_t n) {
  return offset <= data.size() && n <= data.size() - offset;
}

/// Rejects a header-derived element count before anything is allocated for
/// it: \p count elements of at least \p min_bytes each must fit in the
/// bytes left after \p offset.
Status CheckCount(std::string_view data, size_t offset, uint64_t count,
                  uint64_t min_bytes, const char* what) {
  if (offset > data.size() || count > (data.size() - offset) / min_bytes) {
    return Status::InvalidArgument("sketch blob too short for ", count, " ",
                                   what);
  }
  return Status::OK();
}

Status ExpectMagic(std::string_view data, size_t* offset, uint32_t magic,
                   const char* what) {
  uint32_t got = 0;
  Status st = GetU32(data, offset, &got);
  if (!st.ok()) return st;
  if (got != magic) {
    return Status::InvalidArgument("bad ", what, " sketch header");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutBytes(std::string* out, std::string_view bytes) {
  PutU64(out, bytes.size());
  out->append(bytes.data(), bytes.size());
}

Status GetU32(std::string_view data, size_t* offset, uint32_t* v) {
  if (!HasBytes(data, *offset, 4)) {
    return Status::InvalidArgument("truncated sketch blob (u32)");
  }
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(data[*offset + i]))
         << (8 * i);
  }
  *offset += 4;
  *v = r;
  return Status::OK();
}

Status GetU64(std::string_view data, size_t* offset, uint64_t* v) {
  if (!HasBytes(data, *offset, 8)) {
    return Status::InvalidArgument("truncated sketch blob (u64)");
  }
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<unsigned char>(data[*offset + i]))
         << (8 * i);
  }
  *offset += 8;
  *v = r;
  return Status::OK();
}

Status GetBytes(std::string_view data, size_t* offset, std::string* out) {
  uint64_t n = 0;
  Status st = GetU64(data, offset, &n);
  if (!st.ok()) return st;
  if (!HasBytes(data, *offset, n)) {
    return Status::InvalidArgument("truncated sketch blob (bytes)");
  }
  out->assign(data.data() + *offset, n);
  *offset += n;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CmSketch
// ---------------------------------------------------------------------------

CmParams CmParams::FromErrorBound(double eps, double delta, uint64_t seed) {
  CmParams p;
  p.width = eps > 0 ? static_cast<uint32_t>(std::ceil(kEuler / eps)) : 1;
  p.depth = delta > 0 && delta < 1
                ? static_cast<uint32_t>(std::ceil(std::log(1.0 / delta)))
                : 1;
  p.width = std::max<uint32_t>(p.width, 1);
  p.depth = std::max<uint32_t>(p.depth, 1);
  p.seed = seed;
  return p;
}

double CmParams::eps() const { return width > 0 ? kEuler / width : 0; }

double CmParams::delta() const {
  return depth > 0 ? std::exp(-static_cast<double>(depth)) : 1.0;
}

CmSketch::CmSketch(CmParams params) : params_(params) {
  cells_.assign(static_cast<size_t>(params_.width) * params_.depth, 0);
}

size_t CmSketch::Cell(uint32_t row, uint64_t key_hash) const {
  uint64_t h = Mix64(key_hash ^ Mix64(params_.seed + row));
  return static_cast<size_t>(row) * params_.width + h % params_.width;
}

void CmSketch::Update(uint64_t key_hash, uint64_t delta) {
  for (uint32_t r = 0; r < params_.depth; ++r) {
    cells_[Cell(r, key_hash)] += delta;
  }
  total_ += delta;
}

void CmSketch::UpdateConservative(uint64_t key_hash, uint64_t delta) {
  const uint64_t floor = Estimate(key_hash) + delta;
  for (uint32_t r = 0; r < params_.depth; ++r) {
    uint64_t& cell = cells_[Cell(r, key_hash)];
    if (cell < floor) cell = floor;
  }
  total_ += delta;
}

uint64_t CmSketch::Estimate(uint64_t key_hash) const {
  if (cells_.empty()) return 0;
  uint64_t est = cells_[Cell(0, key_hash)];
  for (uint32_t r = 1; r < params_.depth; ++r) {
    est = std::min(est, cells_[Cell(r, key_hash)]);
  }
  return est;
}

Status CmSketch::Merge(const CmSketch& other) {
  if (!(params_ == other.params_)) {
    return Status::InvalidArgument(
        "count-min merge requires identical width/depth/seed");
  }
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
  return Status::OK();
}

void CmSketch::Serialize(std::string* out) const {
  PutU32(out, kCmMagic);
  PutU32(out, params_.width);
  PutU32(out, params_.depth);
  PutU64(out, params_.seed);
  PutU64(out, total_);
  for (uint64_t c : cells_) PutU64(out, c);
}

size_t CmSketch::SerializedSize() const {
  return 4 + 4 + 4 + 8 + 8 + cells_.size() * 8;
}

Result<CmSketch> CmSketch::Deserialize(std::string_view data, size_t* offset) {
  Status st = ExpectMagic(data, offset, kCmMagic, "count-min");
  if (!st.ok()) return st;
  CmParams p;
  uint64_t total = 0;
  if (!(st = GetU32(data, offset, &p.width)).ok()) return st;
  if (!(st = GetU32(data, offset, &p.depth)).ok()) return st;
  if (!(st = GetU64(data, offset, &p.seed)).ok()) return st;
  if (!(st = GetU64(data, offset, &total)).ok()) return st;
  st = CheckCount(data, *offset, uint64_t{p.width} * p.depth, 8,
                  "count-min cells");
  if (!st.ok()) return st;
  CmSketch s(p);
  s.total_ = total;
  for (uint64_t& c : s.cells_) {
    if (!(st = GetU64(data, offset, &c)).ok()) return st;
  }
  return s;
}

// ---------------------------------------------------------------------------
// EhCell
// ---------------------------------------------------------------------------

EhCell::EhCell(uint32_t k) : k_(std::max<uint32_t>(k, 2)) {}

uint32_t EhCell::CapacityForError(double eps) {
  if (eps <= 0) return 64;
  return static_cast<uint32_t>(std::ceil(1.0 / eps)) + 1;
}

void EhCell::Add(uint64_t ts, uint64_t count) {
  if (count == 0) return;
  Bucket b{ts, count};
  // Insert preserving canonical order: ascending (ts, size). Out-of-order
  // timestamps only occur on merged summaries, so the common case appends.
  auto pos = buckets_.end();
  while (pos != buckets_.begin()) {
    auto prev = pos - 1;
    if (prev->ts < b.ts || (prev->ts == b.ts && prev->size <= b.size)) break;
    pos = prev;
  }
  buckets_.insert(pos, b);
  total_ += count;
  Compress();
}

namespace {
/// Power-of-two size class of a bucket (floor(log2(size))).
inline uint32_t SizeClass(uint64_t size) {
  return 63u - static_cast<uint32_t>(__builtin_clzll(size | 1));
}
}  // namespace

void EhCell::Compress() {
  // Canonical compression: while any size class holds more than k_ buckets,
  // merge that class's two oldest into one (ts = newer of the two). The
  // result depends only on the canonical bucket order, never on insertion
  // order — the property EhCell's commutative merge rests on.
  bool changed = true;
  while (changed) {
    changed = false;
    // Count buckets per class; classes are few (log of total).
    uint32_t counts[64] = {};
    for (const Bucket& b : buckets_) ++counts[SizeClass(b.size)];
    for (uint32_t cls = 0; cls < 64; ++cls) {
      if (counts[cls] <= k_) continue;
      // Merge the two oldest buckets of this class.
      size_t first = buckets_.size(), second = buckets_.size();
      for (size_t i = 0; i < buckets_.size(); ++i) {
        if (SizeClass(buckets_[i].size) != cls) continue;
        if (first == buckets_.size()) {
          first = i;
        } else {
          second = i;
          break;
        }
      }
      Bucket merged{std::max(buckets_[first].ts, buckets_[second].ts),
                    buckets_[first].size + buckets_[second].size};
      buckets_.erase(buckets_.begin() + second);
      buckets_.erase(buckets_.begin() + first);
      // Re-insert at the canonical position.
      auto pos = std::upper_bound(
          buckets_.begin(), buckets_.end(), merged,
          [](const Bucket& a, const Bucket& b) {
            return a.ts < b.ts || (a.ts == b.ts && a.size < b.size);
          });
      buckets_.insert(pos, merged);
      changed = true;
      break;
    }
  }
}

uint64_t EhCell::EstimateSince(uint64_t since_ts) const {
  uint64_t in_window = 0;
  uint64_t straddle = 0;  // oldest contributing bucket's size
  for (const Bucket& b : buckets_) {
    if (b.ts >= since_ts) {
      in_window += b.size;
      if (straddle == 0) straddle = b.size;  // buckets are oldest-first
    }
  }
  // The oldest contributing bucket may contain items older than since_ts;
  // split the difference (the classic EH estimator). Size-1 buckets are
  // exact.
  return in_window - straddle / 2;
}

void EhCell::Merge(const EhCell& other) {
  if (k_ == 0) k_ = other.k_;
  std::vector<Bucket> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  std::merge(buckets_.begin(), buckets_.end(), other.buckets_.begin(),
             other.buckets_.end(), std::back_inserter(merged),
             [](const Bucket& a, const Bucket& b) {
               return a.ts < b.ts || (a.ts == b.ts && a.size < b.size);
             });
  buckets_ = std::move(merged);
  total_ += other.total_;
  Compress();
}

void EhCell::Serialize(std::string* out) const {
  PutU32(out, kEhMagic);
  PutU32(out, k_);
  PutU64(out, total_);
  PutU64(out, buckets_.size());
  for (const Bucket& b : buckets_) {
    PutU64(out, b.ts);
    PutU64(out, b.size);
  }
}

Result<EhCell> EhCell::Deserialize(std::string_view data, size_t* offset) {
  Status st = ExpectMagic(data, offset, kEhMagic, "exponential-histogram");
  if (!st.ok()) return st;
  EhCell cell;
  if (!(st = GetU32(data, offset, &cell.k_)).ok()) return st;
  if (!(st = GetU64(data, offset, &cell.total_)).ok()) return st;
  uint64_t n = 0;
  if (!(st = GetU64(data, offset, &n)).ok()) return st;
  if (!(st = CheckCount(data, *offset, n, 16, "histogram buckets")).ok()) {
    return st;
  }
  cell.buckets_.resize(n);
  for (Bucket& b : cell.buckets_) {
    if (!(st = GetU64(data, offset, &b.ts)).ok()) return st;
    if (!(st = GetU64(data, offset, &b.size)).ok()) return st;
  }
  return cell;
}

// ---------------------------------------------------------------------------
// EcmSketch
// ---------------------------------------------------------------------------

EcmParams EcmParams::FromErrorBound(double eps_cm, double delta,
                                    double eps_window, uint64_t seed) {
  EcmParams p;
  p.cm = CmParams::FromErrorBound(eps_cm, delta, seed);
  p.eh_k = EhCell::CapacityForError(eps_window);
  return p;
}

EcmSketch::EcmSketch(EcmParams params)
    : params_(params), stream_(params.eh_k) {
  cells_.assign(static_cast<size_t>(params_.cm.width) * params_.cm.depth,
                EhCell(params_.eh_k));
}

size_t EcmSketch::Cell(uint32_t row, uint64_t key_hash) const {
  uint64_t h = Mix64(key_hash ^ Mix64(params_.cm.seed + row));
  return static_cast<size_t>(row) * params_.cm.width + h % params_.cm.width;
}

void EcmSketch::Update(uint64_t key_hash, uint64_t ts, uint64_t count) {
  for (uint32_t r = 0; r < params_.cm.depth; ++r) {
    cells_[Cell(r, key_hash)].Add(ts, count);
  }
  stream_.Add(ts, count);
  total_ += count;
}

uint64_t EcmSketch::EstimateSince(uint64_t key_hash, uint64_t since_ts) const {
  if (cells_.empty()) return 0;
  uint64_t est = cells_[Cell(0, key_hash)].EstimateSince(since_ts);
  for (uint32_t r = 1; r < params_.cm.depth; ++r) {
    est = std::min(est, cells_[Cell(r, key_hash)].EstimateSince(since_ts));
  }
  return est;
}

uint64_t EcmSketch::TotalSince(uint64_t since_ts) const {
  return stream_.EstimateSince(since_ts);
}

Status EcmSketch::Merge(const EcmSketch& other) {
  if (!(params_ == other.params_)) {
    return Status::InvalidArgument(
        "ECM merge requires identical grid and histogram parameters");
  }
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i].Merge(other.cells_[i]);
  stream_.Merge(other.stream_);
  total_ += other.total_;
  return Status::OK();
}

void EcmSketch::Serialize(std::string* out) const {
  PutU32(out, kEcmMagic);
  PutU32(out, params_.cm.width);
  PutU32(out, params_.cm.depth);
  PutU64(out, params_.cm.seed);
  PutU32(out, params_.eh_k);
  PutU64(out, total_);
  stream_.Serialize(out);
  for (const EhCell& c : cells_) c.Serialize(out);
}

Result<EcmSketch> EcmSketch::Deserialize(std::string_view data,
                                         size_t* offset) {
  Status st = ExpectMagic(data, offset, kEcmMagic, "ECM");
  if (!st.ok()) return st;
  EcmParams p;
  if (!(st = GetU32(data, offset, &p.cm.width)).ok()) return st;
  if (!(st = GetU32(data, offset, &p.cm.depth)).ok()) return st;
  if (!(st = GetU64(data, offset, &p.cm.seed)).ok()) return st;
  if (!(st = GetU32(data, offset, &p.eh_k)).ok()) return st;
  uint64_t total = 0;
  if (!(st = GetU64(data, offset, &total)).ok()) return st;
  // The stream histogram plus one histogram per grid cell follow.
  st = CheckCount(data, *offset, uint64_t{p.cm.width} * p.cm.depth + 1,
                  kMinEhBytes, "ECM histograms");
  if (!st.ok()) return st;
  EcmSketch s(p);
  s.total_ = total;
  auto stream = EhCell::Deserialize(data, offset);
  if (!stream.ok()) return stream.status();
  s.stream_ = std::move(*stream);
  for (EhCell& c : s.cells_) {
    auto cell = EhCell::Deserialize(data, offset);
    if (!cell.ok()) return cell.status();
    c = std::move(*cell);
  }
  return s;
}

// ---------------------------------------------------------------------------
// HeavyHitterSketch
// ---------------------------------------------------------------------------

HeavyHitterSketch::HeavyHitterSketch(CmParams params, size_t max_candidates)
    : cm_(params), max_candidates_(max_candidates) {}

void HeavyHitterSketch::Update(std::string_view key, uint64_t delta) {
  cm_.Update(HashBytes(key), delta);
  candidates_.emplace(std::string(key), true);
  Prune();
}

void HeavyHitterSketch::Prune() {
  while (max_candidates_ > 0 && candidates_.size() > max_candidates_) {
    // Evict the smallest estimate; ties broken toward the larger key so the
    // survivor set is deterministic.
    auto victim = candidates_.begin();
    uint64_t victim_est = cm_.Estimate(HashBytes(victim->first));
    for (auto it = std::next(candidates_.begin()); it != candidates_.end();
         ++it) {
      uint64_t est = cm_.Estimate(HashBytes(it->first));
      if (est <= victim_est) {
        victim = it;
        victim_est = est;
      }
    }
    candidates_.erase(victim);
  }
}

std::vector<HeavyHitterSketch::Hitter> HeavyHitterSketch::HeavyHitters(
    double phi) const {
  const double threshold = phi * static_cast<double>(cm_.total());
  std::vector<Hitter> out;
  for (const auto& [key, unused] : candidates_) {
    uint64_t est = cm_.Estimate(HashBytes(key));
    if (static_cast<double>(est) >= threshold) out.push_back({key, est});
  }
  std::sort(out.begin(), out.end(), [](const Hitter& a, const Hitter& b) {
    if (a.estimate != b.estimate) return a.estimate > b.estimate;
    return a.key < b.key;
  });
  return out;
}

Status HeavyHitterSketch::Merge(const HeavyHitterSketch& other) {
  Status st = cm_.Merge(other.cm_);
  if (!st.ok()) return st;
  for (const auto& [key, unused] : other.candidates_) {
    candidates_.emplace(key, true);
  }
  Prune();
  return Status::OK();
}

void HeavyHitterSketch::Serialize(std::string* out) const {
  PutU32(out, kHhMagic);
  PutU64(out, max_candidates_);
  cm_.Serialize(out);
  PutU64(out, candidates_.size());
  for (const auto& [key, unused] : candidates_) PutBytes(out, key);
}

Result<HeavyHitterSketch> HeavyHitterSketch::Deserialize(std::string_view data,
                                                         size_t* offset) {
  Status st = ExpectMagic(data, offset, kHhMagic, "heavy-hitter");
  if (!st.ok()) return st;
  HeavyHitterSketch s;
  if (!(st = GetU64(data, offset, &s.max_candidates_)).ok()) return st;
  auto cm = CmSketch::Deserialize(data, offset);
  if (!cm.ok()) return cm.status();
  s.cm_ = std::move(*cm);
  uint64_t n = 0;
  if (!(st = GetU64(data, offset, &n)).ok()) return st;
  if (!(st = CheckCount(data, *offset, n, 8, "candidate keys")).ok()) {
    return st;
  }
  for (uint64_t i = 0; i < n; ++i) {
    std::string key;
    if (!(st = GetBytes(data, offset, &key)).ok()) return st;
    s.candidates_.emplace(std::move(key), true);
  }
  return s;
}

// ---------------------------------------------------------------------------
// QuantileSketch
// ---------------------------------------------------------------------------

QuantileSketch::QuantileSketch(CmParams per_level, uint32_t log_universe)
    : log_universe_(log_universe) {
  levels_.reserve(log_universe_);
  for (uint32_t l = 0; l < log_universe_; ++l) {
    CmParams p = per_level;
    p.seed = HashCombine(per_level.seed, l);
    levels_.emplace_back(p);
  }
}

QuantileSketch QuantileSketch::FromErrorBound(double eps, double delta,
                                              uint32_t log_universe,
                                              uint64_t seed) {
  // Rank error stacks one eps_level * total term per level.
  double eps_level = eps / std::max<uint32_t>(log_universe, 1);
  return QuantileSketch(CmParams::FromErrorBound(eps_level, delta, seed),
                        log_universe);
}

uint64_t QuantileSketch::NodeHash(uint32_t level, uint64_t node) const {
  return HashCombine(Mix64(level + 1), node);
}

void QuantileSketch::Update(uint64_t value, uint64_t count) {
  for (uint32_t l = 0; l < log_universe_; ++l) {
    levels_[l].Update(NodeHash(l, value >> l), count);
  }
  total_ += count;
}

uint64_t QuantileSketch::EstimateRank(uint64_t value) const {
  // Items < value: decompose [0, value) into dyadic nodes — one per set bit.
  uint64_t rank = 0;
  for (uint32_t l = 0; l < log_universe_; ++l) {
    if ((value >> l) & 1) {
      rank += levels_[l].Estimate(NodeHash(l, (value >> l) - 1));
    }
  }
  return rank;
}

uint64_t QuantileSketch::Quantile(double phi) const {
  if (log_universe_ == 0 || total_ == 0) return 0;
  uint64_t target = static_cast<uint64_t>(
      std::ceil(phi * static_cast<double>(total_)));
  target = std::max<uint64_t>(target, 1);
  // Greedy descent of the implicit dyadic tree: at each level pick the left
  // child if its (over-)estimated mass covers the remaining target.
  uint64_t node = 0;  // node id at the current level
  uint64_t remaining = target;
  for (uint32_t l = log_universe_; l-- > 0;) {
    uint64_t left = node << 1;
    uint64_t left_mass = levels_[l].Estimate(NodeHash(l, left));
    if (left_mass >= remaining) {
      node = left;
    } else {
      remaining -= left_mass;
      node = left + 1;
    }
  }
  return node;
}

Status QuantileSketch::Merge(const QuantileSketch& other) {
  if (log_universe_ != other.log_universe_) {
    return Status::InvalidArgument(
        "quantile merge requires identical universe size");
  }
  for (size_t l = 0; l < levels_.size(); ++l) {
    Status st = levels_[l].Merge(other.levels_[l]);
    if (!st.ok()) return st;
  }
  total_ += other.total_;
  return Status::OK();
}

void QuantileSketch::Serialize(std::string* out) const {
  PutU32(out, kQsMagic);
  PutU32(out, log_universe_);
  PutU64(out, total_);
  for (const CmSketch& l : levels_) l.Serialize(out);
}

Result<QuantileSketch> QuantileSketch::Deserialize(std::string_view data,
                                                   size_t* offset) {
  Status st = ExpectMagic(data, offset, kQsMagic, "quantile");
  if (!st.ok()) return st;
  QuantileSketch s;
  if (!(st = GetU32(data, offset, &s.log_universe_)).ok()) return st;
  if (!(st = GetU64(data, offset, &s.total_)).ok()) return st;
  st = CheckCount(data, *offset, s.log_universe_, kMinCmBytes,
                  "quantile levels");
  if (!st.ok()) return st;
  s.levels_.reserve(s.log_universe_);
  for (uint32_t l = 0; l < s.log_universe_; ++l) {
    auto level = CmSketch::Deserialize(data, offset);
    if (!level.ok()) return level.status();
    s.levels_.push_back(std::move(*level));
  }
  return s;
}

}  // namespace sketch
}  // namespace streampart
