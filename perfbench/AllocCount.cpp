//===- AllocCount.cpp - counting replacement of operator new ------------------===//
//
// Benchmark-only: every operator new in the benchmark binary (the
// generator's libraries included) bumps a per-thread counter, so spans can
// attribute heap allocations to the layer that made them. The counter is a
// plain thread_local; reading it costs what reading any TLS word costs.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdlib>
#include <new>

namespace {

thread_local uint64_t Allocs = 0;

void *allocate(std::size_t Size) {
  ++Allocs;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *allocateAligned(std::size_t Size, std::align_val_t Align) {
  ++Allocs;
  std::size_t A = static_cast<std::size_t>(Align);
  std::size_t Rounded = (Size + A - 1) / A * A;
  if (void *P = std::aligned_alloc(A, Rounded ? Rounded : A))
    return P;
  throw std::bad_alloc();
}

} // namespace

uint64_t pb::threadAllocs() { return Allocs; }

void *operator new(std::size_t Size) { return allocate(Size); }
void *operator new[](std::size_t Size) { return allocate(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++Allocs;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  ++Allocs;
  return std::malloc(Size ? Size : 1);
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return allocateAligned(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return allocateAligned(Size, Align);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { std::free(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
