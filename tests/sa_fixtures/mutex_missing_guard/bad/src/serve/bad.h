// Fixture: a Mutex member whose class annotates nothing with
// MMM_GUARDED_BY hides the locking contract and must be flagged.
#pragma once

class Mutex;

class Registry {
 public:
  void Insert(int key);

 private:
  Mutex mu_;
  int count_ = 0;
};

// A lock rank states the lock's place in the global order, not what the lock
// guards: a ranked mutex still needs a guarded field.
class RankedRegistry {
 private:
  Mutex mu_ MMM_LOCK_RANK(10);
  int count_ = 0;
};
