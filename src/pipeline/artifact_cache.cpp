#include "pipeline/artifact_cache.h"

#include "perf/profile.h"

namespace netrev::pipeline {

ArtifactCache& ArtifactCache::global() {
  static ArtifactCache cache;
  return cache;
}

std::size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ArtifactCache::max_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_entries_;
}

void ArtifactCache::set_max_entries(std::size_t max_entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_entries_ = max_entries;
  if (max_entries_ == 0) {
    entries_.clear();
    return;
  }
  while (entries_.size() > max_entries_) evict_oldest_locked();
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::shared_ptr<const void> ArtifactCache::lookup(const ArtifactKey& key,
                                                  const std::type_info& type) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it =
        max_entries_ == 0 ? entries_.end() : entries_.find(key);
    if (it != entries_.end()) {
      if (*it->second.type != type)
        throw std::logic_error("artifact cache type mismatch for stage '" +
                               key.stage + "': stored " +
                               it->second.type->name() + ", requested " +
                               type.name());
      hits_.fetch_add(1, std::memory_order_relaxed);
      perf::Profiler::global().count(perf::counter<"cache.hits">(), 1);
      return it->second.value;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  perf::Profiler::global().count(perf::counter<"cache.misses">(), 1);
  return nullptr;
}

std::shared_ptr<const void> ArtifactCache::store(
    const ArtifactKey& key, std::shared_ptr<const void> value,
    const std::type_info& type) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (max_entries_ == 0) return value;  // caching disabled: pass through
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent compute stored first; converge on its artifact.
    if (*it->second.type != type)
      throw std::logic_error("artifact cache type mismatch for stage '" +
                             key.stage + "'");
    return it->second.value;
  }
  if (entries_.size() >= max_entries_) evict_oldest_locked();
  Entry entry;
  entry.value = std::move(value);
  entry.type = &type;
  entry.order = next_order_++;
  return entries_.emplace(key, std::move(entry)).first->second.value;
}

void ArtifactCache::evict_oldest_locked() {
  auto oldest = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->second.order < oldest->second.order) oldest = it;
  if (oldest != entries_.end()) {
    entries_.erase(oldest);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace netrev::pipeline
