#ifndef ODF_BENCH_HOST_STAMP_H_
#define ODF_BENCH_HOST_STAMP_H_

// The host a BENCH_*.json was measured on: core count, SIMD level the
// library was compiled for, compiler, build type, global pool size and every
// ODF_* variable set in the environment. A figure is only comparable with
// one taken under the same stamp.

#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>

#include "util/thread_pool.h"

namespace odf::bench {

inline std::string HostStampJson() {
#if defined(__AVX512F__)
  const char* simd = "avx512";
#elif defined(__AVX2__)
  const char* simd = "avx2";
#elif defined(__AVX__)
  const char* simd = "avx";
#elif defined(__SSE2__)
  const char* simd = "sse2";
#else
  const char* simd = "scalar";
#endif
  std::string env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ODF_", 4) != 0) continue;
    if (!env.empty()) env += ", ";
    env += "\"";
    for (const char* c = *e; *c != '\0'; ++c) {
      if (*c == '"' || *c == '\\') env += '\\';
      if (static_cast<unsigned char>(*c) >= 0x20) env += *c;
    }
    env += "\"";
  }
  const char* build_type = ODF_BENCH_BUILD_TYPE;
  return "{\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"simd\": \"" + simd + "\", \"compiler\": \"" +
         ODF_BENCH_COMPILER + "\", \"build_type\": \"" +
         (build_type[0] != '\0' ? build_type : "none") +
         "\", \"pool_threads\": " +
         std::to_string(ThreadPool::Global().threads()) +
         ", \"odf_env\": [" + env + "]}";
}

}  // namespace odf::bench

#endif  // ODF_BENCH_HOST_STAMP_H_
