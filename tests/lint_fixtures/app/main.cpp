// Fixture: the one non-test user of lib/used.hpp.
#include "used.hpp"

int main() { return fixture::used(); }
