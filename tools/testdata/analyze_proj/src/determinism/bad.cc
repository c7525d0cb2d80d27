// Seeded determinism-pass violations for tests/analyze_test.py. Each marked
// line must produce exactly the findings named in its `// expect:` list —
// including the multimap/multiset and alias cases, and code that follows a
// string literal containing "//". This file is analyzed, never compiled.
#include <chrono>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

using Index = std::unordered_set<int>;  // expect: unordered-container

int Sum() {
  std::unordered_map<int, int> counts;  // expect: unordered-container
  std::unordered_multimap<int, int> dupes;  // expect: unordered-container
  Index seen;  // expect: unordered-container
  int total = std::rand();  // expect: banned-random
  auto t0 = std::chrono::system_clock::now();  // expect: wall-clock
  auto t1 = std::chrono::steady_clock::now();  // expect: raw-steady-clock
  for (const auto& kv : counts) total += kv.second;  // expect: unordered-iter
  for (const auto& kv : dupes) total += kv.second;  // expect: unordered-iter
  for (int v : seen) total += v;  // expect: unordered-iter
  // qfcard-lint: ok(banned-random)
  int again = std::rand();  // expect: banned-random
  const char* url = "http://x"; int late = std::rand();  // expect: banned-random
  // qfcard-lint: ok(wall-clock): names another rule, so this one still fires
  int wrong = std::rand();  // expect: banned-random
  (void)t0;
  (void)t1;
  (void)again;
  (void)url;
  (void)late;
  (void)wrong;
  return total;
}
