// Same two locks as the bad variant, but both paths take them in rank
// order: no cycle, no inversion.
#ifndef SA_FIXTURE_LOCK_CYCLE_CLEAN_H_
#define SA_FIXTURE_LOCK_CYCLE_CLEAN_H_

class Tangle {
 public:
  void f() {
    MutexLock first(a_);
    MutexLock second(b_);
    ++work_;
  }

  void g() {
    MutexLock first(a_);
    MutexLock second(b_);
    ++work_;
  }

 private:
  Mutex a_ MMM_LOCK_RANK(10);
  Mutex b_ MMM_LOCK_RANK(20);
  int work_ MMM_GUARDED_BY(b_) = 0;
};

#endif  // SA_FIXTURE_LOCK_CYCLE_CLEAN_H_
