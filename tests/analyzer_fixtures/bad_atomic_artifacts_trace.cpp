// vbr-analyze-fixture: src/vbr/trace/fixture_trace_writer.cpp
// Library code outside run/ and common/ writes files too: a trace dumped
// through a bare ofstream can be left torn by a crash, and its close error
// is never seen.
#include <fstream>

void dump_trace(const char* path, const double* values, int n) {
  std::ofstream out(path);  // VIOLATION(vbr-atomic-artifacts)
  for (int i = 0; i < n; ++i) out << values[i] << "\n";
}
