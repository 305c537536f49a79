#include "util/fault_injection.h"

#include "util/rng.h"

namespace gesall {

Status FaultInjector::ArmProbability(const std::string& point, double p) {
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("fault probability must be in [0, 1]");
  }
  std::lock_guard<std::mutex> lock(mu_);
  points_[point].fail_probability = p;
  return Status::OK();
}

Status FaultInjector::ArmFirstAttempts(const std::string& point, int n) {
  if (n < 0) {
    return Status::InvalidArgument("attempt count must be non-negative");
  }
  std::lock_guard<std::mutex> lock(mu_);
  points_[point].fail_first_attempts = n;
  return Status::OK();
}

void FaultInjector::ArmSchedule(const std::string& point, int64_t key,
                                std::vector<int> attempts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& scheduled = points_[point].schedule[key];
  scheduled.insert(attempts.begin(), attempts.end());
}

Status FaultInjector::ArmLatency(const std::string& point, double p,
                                 int millis) {
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("latency probability must be in [0, 1]");
  }
  if (millis < 0) {
    return Status::InvalidArgument("latency must be non-negative");
  }
  std::lock_guard<std::mutex> lock(mu_);
  PointConfig& cfg = points_[point];
  cfg.latency_probability = p;
  cfg.latency_ms = millis;
  return Status::OK();
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.erase(point);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

double FaultInjector::Draw(const std::string& point, int64_t key,
                           int attempt, uint64_t salt) const {
  uint64_t h = MixSeeds(seed_, Fnv1a64(point));
  h = MixSeeds(h, static_cast<uint64_t>(key));
  h = MixSeeds(h, MixSeeds(static_cast<uint64_t>(attempt), salt));
  return (h >> 11) * 0x1.0p-53;
}

bool FaultInjector::ShouldFail(const std::string& point, int64_t key,
                               int attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return false;
  PointConfig& cfg = it->second;
  bool fail = attempt < cfg.fail_first_attempts;
  if (!fail) {
    auto sched = cfg.schedule.find(key);
    fail = sched != cfg.schedule.end() && sched->second.count(attempt) > 0;
  }
  if (!fail && cfg.fail_probability > 0.0) {
    fail = Draw(point, key, attempt, /*salt=*/0x0fau) <
           cfg.fail_probability;
  }
  if (fail) ++cfg.fires;
  return fail;
}

Status FaultInjector::MaybeFail(const std::string& point, int64_t key,
                                int attempt) {
  if (ShouldFail(point, key, attempt)) {
    return Status::IOError("injected fault at " + point + " (key " +
                           std::to_string(key) + ", attempt " +
                           std::to_string(attempt) + ")");
  }
  return Status::OK();
}

int FaultInjector::LatencyMs(const std::string& point, int64_t key,
                             int attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return 0;
  PointConfig& cfg = it->second;
  if (cfg.latency_ms <= 0 || cfg.latency_probability <= 0.0) return 0;
  if (Draw(point, key, attempt, /*salt=*/0x1a7u) >=
      cfg.latency_probability) {
    return 0;
  }
  ++cfg.latency_fires;
  return cfg.latency_ms;
}

int64_t FaultInjector::fires(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.fires;
}

int64_t FaultInjector::latency_fires(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  return it == points_.end() ? 0 : it->second.latency_fires;
}

}  // namespace gesall
