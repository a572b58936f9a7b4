// Stub of the runtime that emitted programs call, enough for g++ -fsyntax-only.
#pragma once
#include <cstdlib>
#include <cstring>
namespace runtime {
inline float* malloc(long bytes) { return static_cast<float*>(std::calloc(bytes, 1)); }
inline float* cuda_malloc(long bytes) { return malloc(bytes); }
inline void memcpy(float* dst, const float* src, long bytes) { std::memcpy(dst, src, bytes); }
inline void cudaMemcpyToDevice(float* dst, const float* src, long bytes) { memcpy(dst, src, bytes); }
inline void cudaMemcpyToHost(float* dst, const float* src, long bytes) { memcpy(dst, src, bytes); }
inline void grid_sync() {}
}  // namespace runtime
