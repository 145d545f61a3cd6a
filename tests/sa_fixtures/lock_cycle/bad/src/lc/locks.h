// Seeded two-lock deadlock: f() takes a_ then b_, g() takes b_ then a_.
// mmmsa must report a lock-cycle {a_, b_} (and a rank-inversion on the
// b_ -> a_ edge, since the ranks say a_ is the outer lock).
#ifndef SA_FIXTURE_LOCK_CYCLE_BAD_H_
#define SA_FIXTURE_LOCK_CYCLE_BAD_H_

class Tangle {
 public:
  void f() {
    MutexLock first(a_);
    MutexLock second(b_);
    ++work_;
  }

  void g() {
    MutexLock first(b_);
    MutexLock second(a_);
    ++work_;
  }

 private:
  Mutex a_ MMM_LOCK_RANK(10);
  Mutex b_ MMM_LOCK_RANK(20);
  int work_ MMM_GUARDED_BY(b_) = 0;
};

#endif  // SA_FIXTURE_LOCK_CYCLE_BAD_H_
