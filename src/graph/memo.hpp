#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <typeindex>
#include <typeinfo>

#include "util/check.hpp"

namespace csaw {

/// Tables derived from a graph's CSR arrays, built on first use and kept
/// as long as the graph. A CsrGraph never changes after construction, so
/// one build serves every engine, service batch, partition view and
/// shard router reading the graph, and every copy of it.
///
/// Each table is filed under a key naming what it was derived from (the
/// static-EDGEBIAS CTPS rows use their bias function's address) and is
/// built under its own once-guard: concurrent first users of one key
/// wait for a single build, while builds of different keys run in
/// parallel. A build that throws leaves its key unbuilt, and the next
/// user retries (std::call_once semantics).
class GraphMemo {
 public:
  /// The table of type T filed under `key`, made by `build()` (which
  /// returns a T) on first use.
  template <typename T, typename Build>
  const T& get(std::uintptr_t key, Build&& build) {
    Entry& entry = find_or_add(key, typeid(T));
    std::call_once(entry.once, [&] {
      entry.value = std::make_shared<const T>(build());
      builds_.fetch_add(1, std::memory_order_relaxed);
    });
    return *static_cast<const T*>(entry.value.get());
  }

  /// Tables built so far (one per key that finished a build).
  std::uint64_t builds() const noexcept {
    return builds_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Entry(std::uintptr_t k, std::type_index t) : key(k), type(t) {}
    std::uintptr_t key;
    std::type_index type;
    std::once_flag once;
    std::shared_ptr<const void> value;
  };

  Entry& find_or_add(std::uintptr_t key, std::type_index type) {
    const std::lock_guard lock(mutex_);
    for (Entry& entry : entries_) {
      if (entry.key != key) continue;
      CSAW_CHECK_MSG(entry.type == type,
                     "graph memo key " << key << " holds a "
                                       << entry.type.name() << ", not a "
                                       << type.name());
      return entry;
    }
    return entries_.emplace_back(key, type);
  }

  std::mutex mutex_;
  std::atomic<std::uint64_t> builds_{0};
  std::list<Entry> entries_;  // a list: entries never move once handed out
};

}  // namespace csaw
