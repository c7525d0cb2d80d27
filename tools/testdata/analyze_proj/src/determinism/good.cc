// Clean determinism fixture: every unordered container carries a
// justification (including the alias and its declarations), lookups never
// iterate, and a block comment naming banned calls is not code.
// tests/analyze_test.py expects zero findings here.
#include <unordered_map>
#include <unordered_set>

// qfcard-lint: ok(unordered-container): lookup-only membership probe
using SeenSet = std::unordered_set<int>;

int Lookup(int key) {
  // qfcard-lint: ok(unordered-container): lookup-only, order never observed
  std::unordered_map<int, int> cache;
  // qfcard-lint: ok(unordered-container): lookup-only membership probe
  SeenSet seen;
  /* std::rand() and system_clock::now() are only named here */
  auto it = cache.find(key);
  return it == cache.end() ? static_cast<int>(seen.count(key)) : it->second;
}
