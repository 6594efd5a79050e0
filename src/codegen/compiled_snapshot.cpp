#include "codegen/compiled_snapshot.hpp"

#include <dlfcn.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace lf::codegen {
namespace {

/// A fresh directory under TMPDIR (or /tmp) that only this compile uses.
std::string make_private_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string{tmp && *tmp ? tmp : "/tmp"} +
                    "/lf_snapshot_XXXXXX";
  if (!::mkdtemp(dir.data())) {
    throw std::runtime_error{"cannot create " + dir + ": " +
                             std::strerror(errno)};
  }
  return dir;
}

/// `s` as one sh word: single-quoted, with each ' closed, escaped and
/// reopened.
std::string sh_quote(const std::string& s) {
  std::string quoted = "'";
  for (const char c : s) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  return quoted + "'";
}

}  // namespace

bool compiler_available() {
  return std::system("gcc --version > /dev/null 2>&1") == 0;
}

compiled_snapshot compiled_snapshot::compile(const std::string& c_source) {
  // From here on `snap` owns the directory: any throw below removes it.
  compiled_snapshot snap;
  snap.dir_ = make_private_dir();
  const std::string src_path = snap.dir_ + "/snapshot.c";
  const std::string so_path = snap.dir_ + "/snapshot.so";
  const std::string log_path = snap.dir_ + "/gcc.log";
  {
    std::ofstream os{src_path};
    os << c_source;
    if (!os) throw std::runtime_error{"cannot write " + src_path};
  }
  const std::string cmd = "gcc -O2 -Wall -Wextra -Werror -shared -fPIC -o " +
                          sh_quote(so_path) + " " + sh_quote(src_path) +
                          " 2> " + sh_quote(log_path);
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log{log_path};
    std::string err((std::istreambuf_iterator<char>(log)),
                    std::istreambuf_iterator<char>());
    throw std::runtime_error{"gcc failed to compile snapshot:\n" + err};
  }
  snap.handle_ = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!snap.handle_) {
    throw std::runtime_error{std::string{"dlopen failed: "} + ::dlerror()};
  }
  snap.infer_fn_ = reinterpret_cast<int (*)(const long long*, long long*)>(
      ::dlsym(snap.handle_, "lf_nn_infer"));
  if (!snap.infer_fn_) {
    throw std::runtime_error{"lf_nn_infer not found in compiled snapshot"};
  }
  return snap;
}

compiled_snapshot::compiled_snapshot(compiled_snapshot&& other) noexcept
    : handle_{other.handle_}, infer_fn_{other.infer_fn_},
      dir_{std::move(other.dir_)} {
  other.handle_ = nullptr;
  other.infer_fn_ = nullptr;
  other.dir_.clear();
}

compiled_snapshot& compiled_snapshot::operator=(
    compiled_snapshot&& other) noexcept {
  if (this != &other) {
    this->~compiled_snapshot();
    new (this) compiled_snapshot{std::move(other)};
  }
  return *this;
}

compiled_snapshot::~compiled_snapshot() {
  if (handle_) ::dlclose(handle_);
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
}

std::vector<fp::s64> compiled_snapshot::infer(std::span<const fp::s64> input,
                                              std::size_t output_size) const {
  std::vector<fp::s64> out(output_size, 0);
  infer_into(input, out);
  return out;
}

void compiled_snapshot::infer_into(std::span<const fp::s64> input,
                                   std::span<fp::s64> out) const {
  if (!infer_fn_) throw std::runtime_error{"compiled snapshot not loaded"};
  // The generated C uses `long long`; fp::s64 is int64_t (`long` on LP64).
  // Same width and representation, so the reinterpret is safe.
  static_assert(sizeof(fp::s64) == sizeof(long long));
  const int rc = infer_fn_(reinterpret_cast<const long long*>(input.data()),
                           reinterpret_cast<long long*>(out.data()));
  if (rc != 0) throw std::runtime_error{"lf_nn_infer returned error"};
}

}  // namespace lf::codegen
