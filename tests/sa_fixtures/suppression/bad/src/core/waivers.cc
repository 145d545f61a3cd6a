// Fixture: a suppression without a reason, or naming no check or rule,
// waives nothing and is reported itself.
struct Widget {
  int value = 0;
};

void Destroy(Widget* w) {
  delete w;  // MMMSA(naked-delete):
}

void DestroyAgain(Widget* w) {
  // MMMSA(naked-deletes): the name is not in the catalog
  delete w;
}
