// Fixture: a justified raw std::mutex lints clean.
#pragma once
#include <mutex>

class Counter {
 public:
  void Bump();

 private:
  // MMMSA(raw-std-mutex): fixture interoperates with a non-wrapped cv
  std::mutex mu_;  // MMMSA(mutex-missing-guard): guards an external resource
  int n_ = 0;
};
