#pragma once

#include <cstddef>

namespace csaw {

/// Zero-filled memory mapped from the operating system in whole pages
/// and unmapped when the buffer dies. Meant for large tables built once
/// and kept for a graph's lifetime: the pages come from neither a malloc
/// arena (which can keep freed memory resident, one arena per building
/// thread) nor the heap's fragmentation, and freeing them returns them
/// to the system.
class PageBuffer {
 public:
  PageBuffer() = default;
  /// Maps at least `bytes` bytes; throws std::bad_alloc when the system
  /// refuses. Zero bytes maps nothing.
  explicit PageBuffer(std::size_t bytes);
  ~PageBuffer();

  PageBuffer(PageBuffer&& other) noexcept;
  PageBuffer& operator=(PageBuffer&& other) noexcept;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;

  std::byte* data() const noexcept { return data_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;  // mapped bytes: the request rounded up to pages
};

}  // namespace csaw
