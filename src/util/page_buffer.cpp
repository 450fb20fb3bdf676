#include "util/page_buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

namespace csaw {

PageBuffer::PageBuffer(std::size_t bytes) {
  if (bytes == 0) return;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t size = (bytes + page - 1) / page * page;
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
  size_ = size;
}

PageBuffer::~PageBuffer() {
  if (data_ != nullptr) munmap(data_, size_);
}

PageBuffer::PageBuffer(PageBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

PageBuffer& PageBuffer::operator=(PageBuffer&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

}  // namespace csaw
