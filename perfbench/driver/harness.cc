#include "harness.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <sys/syscall.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void SpinUntil(Clock::time_point due) {
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double n = static_cast<double>(values->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::Count(const std::string& name, uint64_t value) {
  Add(name, static_cast<double>(value), "count", 1);
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  errors_.push_back(why);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

}  // namespace

bool Report::WriteJson(const std::string& path) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\n  \"ok\": " << (ok() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
      << ",\n  \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(errors_[i]);
  }
  out << "],\n  \"counts\": {";
  size_t i = 0;
  for (const auto& [name, value] : counts_) {
    out << (i++ ? ", " : "") << JsonString(name) << ": " << value;
  }
  out << "},\n  \"metrics\": [";
  for (size_t m = 0; m < metrics_.size(); ++m) {
    const Metric& metric = metrics_[m];
    out << (m ? "," : "") << "\n    {\"name\": " << JsonString(metric.name)
        << ", \"value\": " << metric.value
        << ", \"unit\": " << JsonString(metric.unit)
        << ", \"samples\": " << metric.samples << "}";
  }
  out << "\n  ]\n}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out.str();
  return static_cast<bool>(file);
}

RegistryView::RegistryView(const ltm::obs::MetricsRegistry& registry) {
  std::istringstream text(registry.RenderText());
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    const size_t brace = series.find('{');
    const std::string family = series.substr(0, brace);
    if (brace != std::string::npos &&
        series.find("level=", brace) != std::string::npos) {
      continue;
    }
    family_sum_[family] += std::strtod(line.c_str() + space + 1, nullptr);
    family_series_[family].push_back(series);
  }
}

double RegistryView::Sum(const std::string& family) const {
  const auto it = family_sum_.find(family);
  return it == family_sum_.end() ? 0.0 : it->second;
}

std::vector<std::string> RegistryView::Series(const std::string& family) const {
  const auto it = family_series_.find(family);
  return it == family_series_.end() ? std::vector<std::string>{} : it->second;
}

int RunningThreads() {
  const std::string self = std::to_string(::syscall(SYS_gettid));
  int running = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (it->path().filename() == self) continue;
    std::ifstream stat(it->path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;  // the thread just exited
    // "tid (comm) S ...": the state follows the last ')'.
    const size_t paren = line.rfind(')');
    if (paren != std::string::npos && paren + 2 < line.size() &&
        line[paren + 2] == 'R') {
      ++running;
    }
  }
  return running;
}

PhaseSampler::PhaseSampler() {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      max_running_.store(std::max(max_running_.load(), RunningThreads()));
      int64_t sum = 0;
      {
        ltm::MutexLock lock(mu_);
        for (const ltm::obs::Gauge* g : gauges_) sum += g->Value();
      }
      max_gauge_sum_.store(std::max(max_gauge_sum_.load(), sum));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void PhaseSampler::Watch(std::vector<ltm::obs::Gauge*> gauges) {
  ltm::MutexLock lock(mu_);
  gauges_ = std::move(gauges);
}

PhaseSampler::~PhaseSampler() { Stop(); }

void PhaseSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void Quiesce(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

/// The CPUs this process could run on before any thread was pinned
/// (threads inherit their creator's mask, so it must be read first).
const std::vector<int>& ProcessCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void PinToCpu(int index) {
  const std::vector<int>& cpus = ProcessCpus();
  if (cpus.empty()) return;
  // Counted from the highest CPU down: the lowest one takes most device
  // interrupts.
  const int n = static_cast<int>(cpus.size());
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[n - 1 - index % n], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

int AvailableCpus() { return static_cast<int>(ProcessCpus().size()); }

}  // namespace perfbench
