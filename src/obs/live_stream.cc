#include "src/obs/live_stream.h"

#include <unistd.h>

#include <cstdio>

#include "src/common/check.h"

namespace ace {

const char* LiveCounterKey(int counter) {
  ACE_CHECK(counter >= 0 && counter < kNumLiveCounters);
  return kLiveCounterKeys[counter];
}

bool LiveStreamWriter::Open(const std::string& path, bool append) {
  Close();
  file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file_ == nullptr) {
    ok_ = false;
    return false;
  }
  path_ = path;
  ok_ = true;
  return true;
}

void LiveStreamWriter::WriteLine(const std::string& line) {
  if (file_ == nullptr || !ok_) {
    return;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    ok_ = false;
  }
}

void LiveStreamWriter::SyncToDisk() {
  if (file_ == nullptr || !ok_) {
    return;
  }
  if (std::fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    ok_ = false;
  }
}

void LiveStreamWriter::Close() {
  if (file_ != nullptr) {
    if (std::fclose(file_) != 0) {
      ok_ = false;
    }
    file_ = nullptr;
  }
}

}  // namespace ace
